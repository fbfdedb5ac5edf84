(** CCEH: Cacheline-Conscious Extendible Hashing, the hand-crafted persistent
    hash-table baseline (Nam et al., FAST '19; paper §3 and §7.2).

    A directory of 8-byte pointers indexes fixed-size segments; each segment
    is an array of cache-line buckets probed linearly over a small window.
    Overflow splits one segment copy-on-write and rewrites the directory
    pointers covering it; when a segment's local depth reaches the global
    depth the directory doubles.

    The default implementation is crash-correct: directory doubling commits
    by swapping a single directory record (pointer + depth as one atomic
    unit), and segment splits update pointers in an order the recovery pass
    can always normalize.  The §3 bug is reproducible with
    [bug_doubling:true]: the directory pointer, width and global depth
    update as separate persistent stores with a crash window between them,
    after which operations stall — surfaced here as the {!Stalled}
    exception standing in for the paper's infinite loops.

    Keys are positive integers (0 = empty sentinel); values are 8-byte
    integers. *)

type t

val name : string

(** Raised (in [bug_doubling] mode) when the directory metadata is
    inconsistent after a crash — the observable form of CCEH's
    infinite-loop bugs. *)
exception Stalled

(** [create ?capacity ()] — [capacity] is the initial table size in 64-byte
    cache-line buckets (default = the paper's 48 KB). *)
val create : ?bug_doubling:bool -> ?capacity:int -> unit -> t

(** [insert t key value] — [false] if [key] is already present. *)
val insert : t -> int -> int -> bool

val lookup : t -> int -> int option
val delete : t -> int -> bool

(** Global depth of the directory (tests). *)
val global_depth : t -> int

(** Number of segments currently reachable (tests). *)
val segment_count : t -> int

(** Double the directory now, as an insert overflowing a segment at global
    depth does (tests: races a doubling against a split). *)
val double_directory : t -> unit

(** Number of segment splits performed so far — the statistic behind the
    paper's "117K segment splits on inserting 10M keys" observation. *)
val split_count : t -> int

(** Post-crash recovery: re-initializes locks and normalizes directory
    pointers interrupted mid-split (the recovery CCEH's design requires). *)
val recover : t -> unit

(** [leak_sweep ?reclaim t] counts directory slots deviating from their
    region's first pointer — the reachable trace of a split the crash
    interrupted mid-update.  [~reclaim:true] normalizes them (what [recover]
    does).  [repaired] echoes the last [recover]'s normalization count. *)
val leak_sweep : ?reclaim:bool -> t -> Recipe.Recovery.stats

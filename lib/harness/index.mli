(** The index registry: one entry per index of the reproduction.

    An entry names the index, says which family it belongs to and whether
    RECIPE converted it, lists its seeded §3 bug variants, and constructs
    fresh instances as one native {!ops} record.  Every tool reaches the
    indexes through one of three projections of an entry:

    - {!subject}: a crash-campaign subject over integer keys (ordered
      indexes through {!Util.Keys.encode_int});
    - {!partition}: a KV-service partition over byte-string keys;
    - {!driver}: a YCSB driver bound to a prepared workload.

    Every binary resolves its [--index] argument through {!find} (or
    {!resolve} when it also takes [--bug]), and every per-index loop runs
    over {!all}. *)

(** The two sizing regimes.  [Small] is what crash campaigns and serving
    partitions use: hash tables start tiny (P-CLHT 16 buckets, CCEH 128
    slots, Level 12) so short loads resize, and the B+-trees keep integer
    word keys.  [Ycsb kind] keeps every constructor's default capacity and
    picks the B+-tree word-key space from the workload's key kind (§7). *)
type sizing = Small | Ycsb of Ycsb.key_kind

(** One index instance.  [insert] is put-if-absent: [false] if the key was
    present, and the binding is left unchanged.  [update] overwrites a
    present key, where the index has it (every ordered index but
    FAST&FAIR); [scan] is present exactly for the ordered family.  [sweep]
    is the index's reclaiming reachability leak sweep. *)
type 'k ops = {
  insert : 'k -> int -> bool;
  update : ('k -> int -> bool) option;
  lookup : 'k -> int option;
  delete : 'k -> bool;
  scan : ('k -> int -> ('k -> int -> unit) -> int) option;
  recover : unit -> unit;
  sweep : unit -> Recipe.Recovery.stats;
}

(** Ordered indexes take byte-string keys; hash indexes take positive
    integer keys (the paper's §7 split).  The function builds a fresh
    instance. *)
type family = Ordered of (sizing -> string ops) | Hash of (sizing -> int ops)

type t = {
  name : string;  (** display name, e.g. ["P-ART"] *)
  aliases : string list;  (** further lowercase names {!find} accepts *)
  converted : bool;  (** converted by RECIPE (vs a hand-crafted baseline) *)
  lockfree_lookup : bool;
      (** [lookup] takes no lock, never waits on a writer and never
          writes: the KV service may answer Gets on the submitting domain
          ({!Kvserve.Server.partition}'s [p_lockfree_lookup]) *)
  family : family;
  bugs : (string * family) list;  (** seeded §3 bug variants, by [--bug] name *)
}

(** Every index: the six ordered ones, then the three hash tables. *)
val all : t list

(** The P-ART entry. *)
val art : t

(** [find name] is the entry whose display name or one of whose aliases
    equals [name], compared case-insensitively. *)
val find : string -> t option

(** [variant e bug] is [e] with the seeded bug [bug] enabled, named
    ["<name>(buggy)"]; [None] if [e] has no such bug. *)
val variant : t -> string -> t option

(** [resolve name bug] is {!find} then {!variant}, with an error message
    listing the valid choices — the [--index]/[--bug] parser. *)
val resolve : string -> string option -> (t, string) result

(** Comma-separated display names of {!all}, for error messages. *)
val names : unit -> string

val ordered : t -> bool

(** [subject e] builds a fresh crash-campaign subject ([Small] sizing).
    Inserts are plain put-if-absent inserts. *)
val subject : t -> unit -> Crashtest.subject

(** [partition e] builds a fresh serving partition ([Small] sizing).
    [p_insert] upserts through [update] where the index has it, and is
    put-if-absent otherwise.  Hash partitions map an 8-byte key to its
    big-endian integer and any other key to a 62-bit FNV-1a hash of its
    bytes; [p_key_ok] refuses a key that maps to an integer [<= 0], which
    the hash tables cannot hold, and an 8-byte key whose top bit is set,
    which would otherwise alias the key without that bit (the integer
    conversion drops bit 63). *)
val partition : t -> unit -> Kvserve.Server.partition

(** [driver e p] builds a fresh instance sized for [p] ([Ycsb] sizing, with
    [kind] overriding [p]'s key kind) and binds it to [p]'s key universe:
    ordered indexes take {!Ycsb.key_string} keys, hash indexes
    {!Ycsb.key_int} keys and have no scan.  Values stored are the universe
    indexes themselves. *)
val driver : ?kind:Ycsb.key_kind -> t -> Ycsb.prepared -> Ycsb.driver

(** [ordered_driver name p ops] binds an existing ordered instance to [p]. *)
val ordered_driver : string -> Ycsb.prepared -> string ops -> Ycsb.driver

(** P-ART's native ops over an existing tree. *)
val art_ops : Art.t -> string ops

(** YCSB workload generator and multi-threaded runner (paper §7, Table 3).

    Workload patterns follow the paper's Table 3 exactly; updates are
    modeled as inserts of fresh keys (the paper excludes true updates —
    workloads D and F — because several indexes do not support them, and
    runs "insert or read a total of N keys").  Keys are uniformly
    distributed, 8-byte random integers or 24-byte YCSB string keys, with
    the workload file statically split across threads as in the paper's
    index-microbench setup. *)

(** Table 3 workload patterns. *)
type workload =
  | Load_a  (** 100% inserts — bulk database load *)
  | A  (** 50% reads / 50% inserts — session store *)
  | B  (** 95% reads / 5% inserts — photo tagging *)
  | C  (** 100% reads — user-profile cache *)
  | E  (** 95% scans / 5% inserts — threaded conversations *)

val workload_of_string : string -> workload option
val workload_name : workload -> string
val all_workloads : workload list

(** Key type of the run (Fig 4a/4b). *)
type key_kind = Randint | Strkey

(** Access distribution for reads and scan starts.  The paper uses uniform
    keys (§7); scrambled-Zipfian (the YCSB default elsewhere) is provided
    as an extension for skew experiments. *)
type distribution = Uniform | Zipfian of float  (** theta, e.g. 0.99 *)

(** A prepared workload: the key universe plus per-thread operation
    streams.  Generation is deterministic from the seed. *)
type prepared

(** [prepare ~workload ~kind ~nloaded ~nops ~threads ~seed ()] builds the
    key universe ([nloaded] loaded keys + enough fresh insert keys) and the
    static per-thread split of [nops] operations.  [dist] (default
    [Uniform]) skews which loaded keys the reads and scans touch. *)
val prepare :
  workload:workload ->
  kind:key_kind ->
  ?dist:distribution ->
  nloaded:int ->
  nops:int ->
  threads:int ->
  seed:int ->
  unit ->
  prepared

val nloaded : prepared -> int

(** The key kind the workload was prepared with. *)
val kind : prepared -> key_kind

(** Encoded key for universe index [i] (8-byte big-endian or 24-byte YCSB
    string depending on the key kind). *)
val key_string : prepared -> int -> string

(** Raw integer key for universe index [i] (randint runs only). *)
val key_int : prepared -> int -> int

(** Index driver: closures binding one index instance to the universe.
    [scan] is [None] for unordered (hash) indexes, which cannot execute
    range scans — running workload E on such a driver raises
    {!Scan_unsupported} instead of silently measuring no-ops. *)
type driver = {
  dname : string;
  insert : int -> unit;  (** insert universe key [i] *)
  read : int -> bool;  (** point-lookup universe key [i]; found? *)
  scan : (int -> int -> int) option;
      (** scan from key [i], up to [len]; visited *)
}

(** Raised (with the driver name) when a workload containing scans is run
    against a driver without scan support. *)
exception Scan_unsupported of string

(** Result of one measured phase. *)
type result = {
  workload : workload;
  threads : int;
  ops : int;
  seconds : float;
  mops : float;  (** million operations per second *)
  reads_found : int;
  reads_missed : int;
  scanned_total : int;
  latency : Util.Histogram.t option;  (** per-op latency when requested *)
  lat_insert : Util.Histogram.t option;  (** latency of insert ops only *)
  lat_read : Util.Histogram.t option;  (** latency of read ops only *)
  lat_scan : Util.Histogram.t option;  (** latency of scan ops only *)
  seed : int;  (** the seed the workload was prepared with *)
}

(** [load p driver] runs the load phase (all [nloaded] keys inserted,
    statically split across the prepared thread count) and returns its
    measurement as a Load_a result.  [latency:true] samples per-insert
    latency with the monotonic clock; [sample] (default 1: every op) keeps
    only every Kth operation's timestamp pair, so latency annotation stops
    perturbing the throughput it annotates. *)
val load : ?latency:bool -> ?sample:int -> prepared -> driver -> result

(** [run ?latency ?sample p driver] executes the prepared operation streams
    on their domains and measures wall-clock throughput.  The load phase
    must have been run first.  [latency:true] additionally samples
    per-operation latency (monotonic clock, every [sample]th op — default
    every op), overall ([latency]) and split by operation type
    ([lat_insert]/[lat_read]/[lat_scan]).  When the {!Obs.Trace} ring is
    enabled, every operation is bracketed with [Op_begin]/[Op_end] events.

    @raise Scan_unsupported when the workload is [E] and [driver.scan] is
    [None]. *)
val run : ?latency:bool -> ?sample:int -> prepared -> driver -> result

val pp_result : Format.formatter -> result -> unit

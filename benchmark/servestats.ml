(* Windows over the serving layer's stats snapshot, and the per-layer
   metrics derived from them.

   The snapshot is the flat field list of {!Kvserve.Server.stats_snapshot}
   — the same list whether it is read in process or fetched from a
   kv_server child with a [Stats] request — so every serve workload derives
   its persist, txn and server metrics by one code path.  Histogram means
   come as [mean_x1000] fixed point; count × mean gives each histogram's
   running sum, so a window's mean is Δsum / Δcount. *)

type acc = (string, float) Hashtbl.t

let extend fields =
  let t = Hashtbl.create 128 in
  List.iter (fun (k, v) -> Hashtbl.replace t k (float_of_int v)) fields;
  List.iter
    (fun (k, v) ->
      match Filename.chop_suffix_opt ~suffix:".count" k with
      | Some p -> (
          match List.assoc_opt (p ^ ".mean_x1000") fields with
          | Some mx ->
              Hashtbl.replace t (p ^ ".sum") (float_of_int v *. float_of_int mx /. 1000.)
          | None -> ())
      | None -> ())
    fields;
  t

let create () : acc = Hashtbl.create 128
let get (t : acc) k = Option.value (Hashtbl.find_opt t k) ~default:0.

(** Add the change between two snapshots to [acc]. *)
let accumulate acc ~before ~after =
  let a = extend before and b = extend after in
  Hashtbl.iter (fun k v -> Hashtbl.replace acc k (get acc k +. v -. get a k)) b

let shards = Kvserve.Server.default_config.Kvserve.Server.shards

let shard_sum acc name =
  let s = ref 0. in
  for sid = 0 to shards - 1 do
    s := !s +. get acc (Printf.sprintf "shard.%d.%s" sid name)
  done;
  !s

let ratio a b = if b = 0. then 0. else a /. b

(** Counts over untraced windows in which the clients saw [acked] ops
    acknowledged. *)
let counts (l : Report.layer) acc ~acked =
  let acked = float_of_int acked in
  {
    l with
    Report.clwb_per_op = ratio (get acc "pmem.clwb") acked;
    sfence_per_op = ratio (get acc "pmem.sfence") acked;
    ops_per_epoch = ratio (shard_sum acc "epoch_ops.sum") (shard_sum acc "epoch_ops.count");
    lines_per_epoch = ratio (get acc "group_lines") (get acc "epochs");
    epochs_per_kop = ratio (get acc "epochs") (acked /. 1000.);
    txn_abort_frac =
      ratio (get acc "txn_aborted") (get acc "txns" +. get acc "txn_aborted");
    batch_ops = ratio (shard_sum acc "batch_ops.sum") (shard_sum acc "batch_ops.count");
  }

(** Mean router-level ack (submit to ack, per request) over the window, ns. *)
let ack_mean_ns acc = ratio (get acc "ack_ns.sum") (get acc "ack_ns.count")

(** Phase shares of per-operation ack time over traced windows (spans on),
    and the mean shard queue length by Little's law: arrival rate times
    mean queue wait, with [ops_per_ns] the acked-op rate. *)
let phases (l : Report.layer) acc ~ops_per_ns =
  let ack = shard_sum acc "ack_ns.sum" in
  let share p = ratio (shard_sum acc (p ^ "_ns.sum")) ack in
  let queue_wait = ratio (shard_sum acc "queue_ns.sum") (shard_sum acc "queue_ns.count") in
  {
    l with
    Report.queue_frac = share "queue";
    apply_frac = share "apply";
    epoch_wait_frac = share "epoch_wait";
    fence_frac = share "fence";
    queue_depth = ops_per_ns *. queue_wait /. float_of_int shards;
  }

(* Volatile spinlocks with crash re-initialization semantics.

   RECIPE assumes "the locks used in the index are non-persistent, and that
   the locks are re-initialized after a crash (to prevent deadlock)" (§4.2);
   §6 realizes this with a lock table rebuilt at restart.  We get the same
   effect without walking the structure: a global lock epoch.  A lock is held
   iff its word records the *current* epoch; recovery bumps the epoch, which
   atomically frees every lock in the index — including locks held by the
   thread that "died" at the simulated crash point.

   A lock is one [int Atomic.t] (2 words).  Its low {!epoch_bits} bits hold
   the epoch in which it was taken (0 when unheld); the bits
   above hold its process-unique sanitizer id, 0 until the lock is first
   taken or released while acquire/release hooks are installed.  The psan
   sanitizer registers those hooks so lock hand-off counts as a
   release/acquire publication edge in its race check (a writer's plain
   stores under the lock are visible to the next holder).  Ids are drawn
   only then, so creating a lock costs no shared counter.  The hooks are
   behind one ref test and default to off. *)

type t = int Atomic.t

let epoch_bits = 31
let epoch_mask = (1 lsl epoch_bits) - 1

(* In [1, epoch_mask]: 0 marks a free lock word in every epoch. *)
let epoch = Atomic.make 1

(** Recovery: instantly re-initialize (free) every lock ever created. *)
let rec new_epoch () =
  let e = Atomic.get epoch in
  if not (Atomic.compare_and_set epoch e ((e mod epoch_mask) + 1)) then
    new_epoch ()

let create () : t = Atomic.make 0
let next_id = Atomic.make 1

(* The sanitizer id of [t], drawn on first use.  Only called by the holder,
   whose ownership keeps every other writer off the word. *)
let id t =
  let v = Atomic.get t in
  if v lsr epoch_bits <> 0 then v lsr epoch_bits
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    Atomic.set t ((id lsl epoch_bits) lor (v land epoch_mask));
    id
  end

(* Sanitizer hooks: [acquired id] after winning the lock, [released id]
   just before giving it up.  Installed by [Psan.enable]. *)
let hooks_on = ref false
let on_acquired : (int -> unit) ref = ref ignore
let on_released : (int -> unit) ref = ref ignore

let set_hooks ~acquired ~released =
  on_acquired := acquired;
  on_released := released;
  hooks_on := true

let clear_hooks () =
  hooks_on := false;
  on_acquired := ignore;
  on_released := ignore

(* Abort hook: called on every failed spin iteration, here and in the
   indexes' own retry loops (CLHT bucket-head locking, FAST & FAIR seqlock
   reads).  A crash campaign installs a closure that raises
   [Pmem.Crash.Simulated_crash] once its stop flag is up, so domains left
   spinning on a lock held by the "crashed" domain unwind instead of
   hanging — a real power failure kills them too; the epoch bump at
   recovery then frees the lock.  Defaults to a no-op. *)
let abort_hook : (unit -> unit) ref = ref ignore
let abort_point () = !abort_hook ()
let set_abort_hook f = abort_hook := f
let clear_abort_hook () = abort_hook := ignore

let is_locked t = Atomic.get t land epoch_mask = Atomic.get epoch

let try_lock t =
  let cur = Atomic.get epoch in
  let v = Atomic.get t in
  if v land epoch_mask = cur then false
  else begin
    let ok = Atomic.compare_and_set t v (v land lnot epoch_mask lor cur) in
    if ok && !hooks_on then !on_acquired (id t);
    ok
  end

(* Bounded spinning, then yield the OS thread: on machines with fewer cores
   than domains, a preempted lock holder would otherwise stall every spinner
   for a whole scheduling quantum.  An uncontended [lock] is one [try_lock]
   and allocates nothing; the spin is a top-level recursion. *)
let rec lock_wait t spins pause =
  if not (try_lock t) then begin
    abort_point ();
    if spins > 0 then begin
      Domain.cpu_relax ();
      lock_wait t (spins - 1) pause
    end
    else begin
      Unix.sleepf pause;
      lock_wait t 0 (Float.min (pause *. 2.0) 0.0001)
    end
  end

let lock t =
  if not (try_lock t) then begin
    abort_point ();
    Domain.cpu_relax ();
    lock_wait t 199 0.000001
  end

let unlock t =
  if !hooks_on then !on_released (id t);
  Atomic.set t (Atomic.get t land lnot epoch_mask)

(** [with_lock t f] runs [f] holding [t].  No cleanup on exception: a
    simulated crash must leave the lock held, exactly like a real power
    failure; recovery frees it via {!new_epoch}. *)
let with_lock t f =
  lock t;
  let r = f () in
  unlock t;
  r

(* A fixed team of client domains, spawned once per run and handed one
   task per phase.

   Spawning fresh domains for every phase would walk domain ids upwards,
   and {!Obs} counters pick their slot as [id land 127]: two live domains
   whose ids collide there lose increments.  One team per run keeps the
   ids of a whole run small (checked at the end by {!max_domain_id}). *)

type t = {
  n : int;
  mu : Mutex.t;
  wake : Condition.t;
  finished : Condition.t;
  mutable gen : int;
  mutable task : int -> unit;
  mutable pending : int;
  mutable stop : bool;
  mutable error : exn option;
  mutable domains : unit Domain.t list;
}

let worker t tid () =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mu;
    while t.gen = !seen && not t.stop do
      Condition.wait t.wake t.mu
    done;
    if t.stop then begin
      Mutex.unlock t.mu;
      running := false
    end
    else begin
      seen := t.gen;
      let f = t.task in
      Mutex.unlock t.mu;
      let err = match f tid with () -> None | exception e -> Some e in
      Mutex.lock t.mu;
      (match err with Some _ when t.error = None -> t.error <- err | _ -> ());
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.finished;
      Mutex.unlock t.mu
    end
  done

let create n =
  let t =
    {
      n;
      mu = Mutex.create ();
      wake = Condition.create ();
      finished = Condition.create ();
      gen = 0;
      task = ignore;
      pending = 0;
      stop = false;
      error = None;
      domains = [];
    }
  in
  t.domains <- List.init n (fun tid -> Domain.spawn (worker t tid));
  t

let size t = t.n

(** Run [f tid] on every team domain and wait for all of them; re-raises
    the first exception a task raised. *)
let run t f =
  Mutex.lock t.mu;
  t.task <- f;
  t.pending <- t.n;
  t.error <- None;
  t.gen <- t.gen + 1;
  Condition.broadcast t.wake;
  while t.pending > 0 do
    Condition.wait t.finished t.mu
  done;
  let err = t.error in
  Mutex.unlock t.mu;
  Option.iter raise err

let shutdown t =
  Mutex.lock t.mu;
  t.stop <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mu;
  List.iter Domain.join t.domains;
  t.domains <- []

(** Highest domain id this process has handed out, probed by spawning one
    more domain (ids are sequential and never reused). *)
let max_domain_id () =
  Domain.join (Domain.spawn (fun () -> (Domain.self () :> int))) - 1

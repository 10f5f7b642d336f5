(* One dedicated domain for off-thread epoch re-merges.

   Jobs are thunks produced by [Service.begin_epoch]: already closed
   over an immutable snapshot, safe to run on any domain. The worker
   pulls from a mutex+condition queue in submission order; finished
   jobs land on a completion list the event loop drains at each
   wake-up, and every completion fires the [wakeup] callback (the
   daemon's self-pipe) so a loop blocked in poll notices without
   polling.

   An epoch is a hundreds-of-milliseconds batch that must never run
   on the dispatch thread; it runs sequentially here, sharing the
   tenant's single-lock caches with the dispatch thread. *)

type completion = {
  c_id : int;  (* the [submit] ticket this result answers *)
  c_result : (Epoch.outcome, exn) result;
}

type job = { j_id : int; j_run : unit -> Epoch.outcome }

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  mutable completions : completion list;  (* newest first *)
  mutable stopping : bool;
  mutable next_id : int;
  wakeup : unit -> unit;
  mutable domain : unit Domain.t option;
}

let rec worker_loop t =
  Mutex.lock t.lock;
  while Queue.is_empty t.queue && not t.stopping do
    Condition.wait t.nonempty t.lock
  done;
  if Queue.is_empty t.queue && t.stopping then Mutex.unlock t.lock
  else begin
    let job = Queue.pop t.queue in
    Mutex.unlock t.lock;
    let result = try Ok (job.j_run ()) with e -> Error e in
    Mutex.lock t.lock;
    t.completions <- { c_id = job.j_id; c_result = result } :: t.completions;
    Mutex.unlock t.lock;
    (try t.wakeup () with _ -> ());
    worker_loop t
  end

let create ~wakeup =
  let t =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      completions = [];
      stopping = false;
      next_id = 0;
      wakeup;
      domain = None;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> worker_loop t));
  t

let submit t run =
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    invalid_arg "Epoch_worker.submit: worker shut down"
  end;
  let id = t.next_id in
  t.next_id <- id + 1;
  Queue.push { j_id = id; j_run = run } t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock;
  id

let drain t =
  Mutex.lock t.lock;
  let done_ = t.completions in
  t.completions <- [];
  Mutex.unlock t.lock;
  (* Oldest first: commits land in submission order. *)
  List.rev done_

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.lock;
  Option.iter Domain.join t.domain

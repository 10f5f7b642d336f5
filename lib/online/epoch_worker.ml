(* One dedicated domain for off-thread epoch re-merges.

   Jobs are thunks produced by [Service.begin_epoch]: already closed
   over an immutable snapshot, safe to run on any domain. The worker
   pulls from a mutex+condition queue in submission order; finished
   jobs land, with the tag they were submitted under, on a completion
   list the event loop drains at each wake-up, and every completion
   fires the [wakeup] callback (the daemon's self-pipe) so a loop
   blocked in poll notices without polling.

   An epoch is a hundreds-of-milliseconds batch that must never run
   on the dispatch thread; it runs sequentially here, sharing the
   tenant's single-lock caches with the dispatch thread. *)

type 'a completion = {
  c_tag : 'a;  (* the tag the job was submitted with *)
  c_result : (Epoch.outcome, exn) result;
}

type 'a t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : ('a * (unit -> Epoch.outcome)) Queue.t;
  mutable completions : 'a completion list;  (* newest first *)
  mutable stopping : bool;
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
    let tag, run = Queue.pop t.queue in
    Mutex.unlock t.lock;
    let result = try Ok (run ()) with e -> Error e in
    Mutex.lock t.lock;
    t.completions <- { c_tag = tag; c_result = result } :: t.completions;
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
      wakeup;
      domain = None;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> worker_loop t));
  t

let submit t tag run =
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    invalid_arg "Epoch_worker.submit: worker shut down"
  end;
  Queue.push (tag, run) t.queue;
  Condition.signal t.nonempty;
  Mutex.unlock t.lock

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

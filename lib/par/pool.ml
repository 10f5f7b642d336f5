(* Fixed-size domain pool with a shared work queue. Batches are
   submitted by parallel_map; the submitting domain helps
   (pops queued tasks while its batch is outstanding) instead of
   blocking, so nested parallel calls cannot deadlock and the caller's
   core stays busy. Results are delivered in input order; the memory
   model is covered by the batch mutex (every result write
   happens-before the completion-count read that releases the
   caller). *)

module Metrics = Im_obs.Metrics

let m_tasks = Metrics.counter "par_tasks_total"
let m_queue_depth = Metrics.gauge "par_queue_depth"
let m_task_seconds = Metrics.histogram "par_task_seconds"

type t = {
  lock : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  n_workers : int;
}

let domain_count t = t.n_workers

(* ---- Sizing ---- *)

let hardware_default () = max 0 (Domain.recommended_domain_count () - 1)

let default_domains () =
  match Sys.getenv_opt "IM_DOMAINS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 0 -> n
     | Some _ | None -> hardware_default ())
  | None -> hardware_default ()

(* ---- Task execution ---- *)

(* Batch tasks trap their own exceptions (parallel_map funnels the
   first one back to the caller); a raise escaping here would kill a
   worker domain silently, so it is swallowed defensively. *)
let run_task task =
  Metrics.Counter.incr m_tasks;
  let s = Metrics.Span.start m_task_seconds in
  (try task () with _ -> ());
  ignore (Metrics.Span.stop s)

(* Pop under the pool lock; [None] means the queue is empty. *)
let try_pop t =
  Mutex.lock t.lock;
  let task =
    if Queue.is_empty t.queue then None
    else begin
      let task = Queue.pop t.queue in
      Metrics.Gauge.set_int m_queue_depth (Queue.length t.queue);
      Some task
    end
  in
  Mutex.unlock t.lock;
  task

let rec worker_loop t =
  Mutex.lock t.lock;
  if not (Queue.is_empty t.queue) then begin
    let task = Queue.pop t.queue in
    Metrics.Gauge.set_int m_queue_depth (Queue.length t.queue);
    Mutex.unlock t.lock;
    run_task task;
    worker_loop t
  end
  else if t.stopping then Mutex.unlock t.lock (* drained: exit *)
  else begin
    Condition.wait t.work_available t.lock;
    Mutex.unlock t.lock;
    worker_loop t
  end

let create ?domains () =
  let n =
    match domains with
    | Some n -> max 0 (min n 64)
    | None -> default_domains ()
  in
  let t =
    {
      lock = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      workers = [];
      n_workers = n;
    }
  in
  t.workers <- List.init n (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let ensure_live t =
  Mutex.lock t.lock;
  let dead = t.stopping in
  Mutex.unlock t.lock;
  if dead then invalid_arg "Im_par.Pool: pool used after shutdown"

let submit_batch t tasks =
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    invalid_arg "Im_par.Pool: pool used after shutdown"
  end;
  List.iter (fun task -> Queue.add task t.queue) tasks;
  Metrics.Gauge.set_int m_queue_depth (Queue.length t.queue);
  Condition.broadcast t.work_available;
  Mutex.unlock t.lock

(* Wait for a batch to finish, running queued tasks meanwhile. When
   the queue is empty the batch's stragglers are in flight on other
   domains; sleep on the batch condition until they signal. *)
let rec help_until_done t blk remaining done_c =
  match try_pop t with
  | Some task ->
    run_task task;
    help_until_done t blk remaining done_c
  | None ->
    Mutex.lock blk;
    if !remaining = 0 then Mutex.unlock blk
    else begin
      Condition.wait done_c blk;
      Mutex.unlock blk;
      help_until_done t blk remaining done_c
    end

let parallel_map t f xs =
  ensure_live t;
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs when t.n_workers = 0 -> List.map f xs
  | xs ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results = Array.make n None in
    let blk = Mutex.create () in
    let done_c = Condition.create () in
    let remaining = ref n in
    let failure = ref None in
    let task i () =
      (match f arr.(i) with
       | v -> results.(i) <- Some v
       | exception e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock blk;
         if Option.is_none !failure then failure := Some (e, bt);
         Mutex.unlock blk);
      Mutex.lock blk;
      decr remaining;
      if !remaining = 0 then Condition.broadcast done_c;
      Mutex.unlock blk
    in
    submit_batch t (List.init n (fun i -> task i));
    help_until_done t blk remaining done_c;
    (match !failure with
     | Some (e, bt) -> Printexc.raise_with_backtrace e bt
     | None -> ());
    Array.to_list
      (Array.map (function Some v -> v | None -> assert false) results)

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.work_available;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join workers

(* ---- The shared default pool ---- *)

let default_lock = Mutex.create ()
let default_pool : t option ref = ref None
let default_override : int option ref = ref None

(* Registered unconditionally at module init: joining the workers at
   exit keeps the runtime teardown orderly even if the main domain
   returns while the pool is idle. *)
let () =
  at_exit (fun () ->
      let pool =
        Mutex.lock default_lock;
        let p = !default_pool in
        default_pool := None;
        Mutex.unlock default_lock;
        p
      in
      match pool with Some p -> shutdown p | None -> ())

let default () =
  Mutex.lock default_lock;
  let pool =
    match !default_pool with
    | Some p -> p
    | None ->
      let domains =
        match !default_override with
        | Some n -> n
        | None -> default_domains ()
      in
      let p = create ~domains () in
      default_pool := Some p;
      p
  in
  Mutex.unlock default_lock;
  pool

let set_default_domains n =
  let n = max 0 n in
  Mutex.lock default_lock;
  default_override := Some n;
  let stale =
    match !default_pool with
    | Some p when domain_count p <> n ->
      default_pool := None;
      Some p
    | Some _ | None -> None
  in
  Mutex.unlock default_lock;
  match stale with Some p -> shutdown p | None -> ()

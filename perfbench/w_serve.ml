(* Workload [serve]: the built CLI daemon at default settings with two
   tenants, one connection each, driven from this single-threaded
   process.

   - steady (the default tenant, Synthetic1): STMTs at a fixed
     open-loop rate, cycling through 8 templates; every 10th command
     reads CONFIG or STATS instead. Its statement latencies are the
     workload's, timed from when each command was due.
   - churn (Synthetic2): STMTs at the same rate from two groups of 2
     templates that swap every [period] statements, so drift epochs run
     on the epoch worker; each triggering STMT's held reply, timed from
     its due time, is one epoch sample.
   - a closed-loop pipelined leg on steady measures saturation.

   The traced run drives the daemon the same way, reads its METRICS,
   and replays each tenant's statement sequence in process through
   [Service.feed_batch_async], [begin_epoch] and [commit_epoch] with
   spans around each call. *)

open Common
module Index = Im_catalog.Index
module Config = Im_catalog.Config
module Service = Im_costsvc.Service
module Online = Im_online.Service

let cli =
  List.fold_left Filename.concat "_build" [ "default"; "bin"; "index_merge_cli.exe" ]

let rate = 400.  (* commands per second on each connection *)
let steady_templates = 8
let churn_groups = 2
let churn_per_group = 2
let period = 400  (* churn statements between mix swaps *)
let steady_warmup = 256  (* statements, closed loop, in set-up *)
let churn_warmup = 24  (* the daemon's bootstrap threshold *)
let sat_depth = 64
let sat_warm_legs = 2  (* one-second closed-loop legs, not counted *)
let sat_legs = 5  (* one-second closed-loop legs; the median counts *)
let late_bound_s = 0.050  (* generator p99 lateness it may report under *)
let drain_s = 60.

(* ---- Inputs ---- *)

let budget db = max 1 (Database.data_pages db / 2)

(* Only the small template texts and generators stay in memory: the
   generated databases are dropped before measuring, so this process's
   own garbage collector does not pause the load generator. *)
type inputs = {
  budget1 : int;  (** the daemon's default budget for each tenant *)
  budget2 : int;
  steady_texts : string array;
  churn_texts : string array;
  rng_steady : Rng.t;
  rng_churn : Rng.t;
  mutable steady_n : int;
  mutable churn_n : int;
}

(* The same inputs drawing their statements from [seed]'s stream. *)
let reseed inp ~seed =
  {
    inp with
    rng_steady = Rng.create ((seed * 15_485_863) + 2);
    rng_churn = Rng.create ((seed * 32_452_843) + 3);
    steady_n = 0;
    churn_n = 0;
  }

let make_inputs ~seed =
  let db1 = synthetic1 () and db2 = synthetic2 () in
  let texts db n = Array.map Query.to_sql (templates db ~n) in
  reseed ~seed
    {
      budget1 = budget db1;
      budget2 = budget db2;
      steady_texts = texts db1 steady_templates;
      churn_texts = texts db2 (churn_groups * churn_per_group);
      rng_steady = Rng.create 0;
      rng_churn = Rng.create 0;
      steady_n = 0;
      churn_n = 0;
    }

let shifted rng text =
  match Rng.int rng 8 with 0 -> text | delta -> mutate_constants ~delta text

(* Steady cycles through its templates, so every window — the
   bootstrap's 24 statements included — holds the same mix. *)
let steady_stmt inp =
  let k = inp.steady_n mod Array.length inp.steady_texts in
  inp.steady_n <- inp.steady_n + 1;
  shifted inp.rng_steady inp.steady_texts.(k)

let churn_stmt inp =
  let group = inp.churn_n / period mod churn_groups in
  inp.churn_n <- inp.churn_n + 1;
  shifted inp.rng_churn
    inp.churn_texts.((group * churn_per_group) + Rng.int inp.rng_churn churn_per_group)

(* ---- Connections ---- *)

type kind = Stmt | Other

type cmd = {
  kind : kind;
  text : string;
  due : float;
  mutable replied : float;  (* nan until the whole reply arrived *)
  mutable reply : string;
  mutable detail : string list;  (* CONFIG/METRICS lines, newest first *)
}

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;  (* bytes not yet written *)
  inbuf : Buffer.t;  (* a partial reply line *)
  awaiting : cmd Queue.t;
  mutable detail_left : int;
  mutable extra : int;  (* reply lines with no command to answer *)
  mutable closed : bool;
  mutable log : cmd list;  (* every command, newest first *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    out = Buffer.create 4096;
    inbuf = Buffer.create 4096;
    awaiting = Queue.create ();
    detail_left = 0;
    extra = 0;
    closed = false;
    log = [];
  }

let send c kind ?(due = now_s ()) text =
  let cmd =
    { kind; text; due; replied = nan; reply = ""; detail = [] }
  in
  Buffer.add_string c.out text;
  Buffer.add_char c.out '\n';
  Queue.push cmd c.awaiting;
  c.log <- cmd :: c.log;
  cmd

let flush c =
  let pending = Buffer.length c.out in
  if pending > 0 && not c.closed then
    match Unix.write_substring c.fd (Buffer.contents c.out) 0 pending with
    | n ->
      let rest = Buffer.sub c.out n (pending - n) in
      Buffer.clear c.out;
      Buffer.add_string c.out rest
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.closed <- true

let multi_line cmd =
  let verb = String.uppercase_ascii cmd.text in
  verb = "CONFIG" || verb = "METRICS"

let on_line c now line =
  if c.detail_left > 0 then begin
    let cmd = Queue.peek c.awaiting in
    cmd.detail <- line :: cmd.detail;
    c.detail_left <- c.detail_left - 1;
    if c.detail_left = 0 then (cmd.replied <- now; ignore (Queue.pop c.awaiting))
  end
  else
    match Queue.peek_opt c.awaiting with
    | None -> c.extra <- c.extra + 1
    | Some cmd ->
      cmd.reply <- line;
      let n =
        if multi_line cmd then
          Option.value ~default:0 (Scanf.sscanf_opt line "OK %d" Fun.id)
        else 0
      in
      if n > 0 then c.detail_left <- n
      else (cmd.replied <- now; ignore (Queue.pop c.awaiting))

let scratch = Bytes.create 65536

let read_conn c =
  match Unix.read c.fd scratch 0 (Bytes.length scratch) with
  | 0 -> c.closed <- true
  | n ->
    let now = now_s () in
    Buffer.add_subbytes c.inbuf scratch 0 n;
    let s = Buffer.contents c.inbuf in
    let rec lines i =
      match String.index_from_opt s i '\n' with
      | Some j ->
        on_line c now (String.sub s i (j - i));
        lines (j + 1)
      | None -> i
    in
    let rest = lines 0 in
    Buffer.clear c.inbuf;
    Buffer.add_string c.inbuf (String.sub s rest (String.length s - rest))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.closed <- true

(* Run the event loop until [tick] says it is done or the deadline
   passes. [tick now] sends whatever is due and returns the next time
   it needs control, or [None] once it has nothing left to send and
   wants the loop to end when every reply is in. *)
let drive conns ~deadline tick =
  let rec loop () =
    let now = now_s () in
    let next = tick now in
    let idle = List.for_all (fun c -> Queue.is_empty c.awaiting || c.closed) conns in
    if next = None && idle then true
    else if now > deadline then false
    else begin
      List.iter flush conns;
      let wake = match next with Some t -> t | None -> now +. 0.05 in
      let timeout = Float.max 0. (Float.min 0.05 (wake -. now_s ())) in
      let live = List.filter (fun c -> not c.closed) conns in
      let rd = List.map (fun c -> c.fd) live in
      let wr = List.filter_map (fun c -> if Buffer.length c.out > 0 then Some c.fd else None) live in
      (match Unix.select rd wr [] timeout with
       | r, w, _ ->
         List.iter
           (fun c ->
             if List.mem c.fd w then flush c;
             if List.mem c.fd r then read_conn c)
           live
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* Send [cmds] now and wait for all their replies. *)
let exchange ?(timeout = drain_s) conns cmds =
  let sent = ref false in
  let ok =
    drive conns ~deadline:(now_s () +. timeout) (fun _ ->
        if not !sent then begin
          sent := true;
          List.iter (fun (c, kind, text) -> ignore (send c kind text)) cmds
        end;
        None)
  in
  if not ok then refuse "serve: the daemon did not answer within %.0f s" timeout

(* ---- The daemon ---- *)

type daemon = { pid : int; out : Unix.file_descr; port : int }

(* The daemon's two banner lines, read straight from the pipe (no
   channel buffer to hide the second line from [select]). *)
let read_banner fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let deadline = now_s () +. 60. in
  let lines () = List.length (String.split_on_char '\n' (Buffer.contents buf)) - 1 in
  let rec go () =
    if lines () >= 2 then Some (Buffer.contents buf)
    else
      match Unix.select [ fd ] [] [] (Float.max 0. (deadline -. now_s ())) with
      | [], _, _ -> None
      | _ ->
        (match Unix.read fd chunk 0 (Bytes.length chunk) with
         | 0 -> None
         | n -> Buffer.add_subbytes buf chunk 0 n; go ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let start_daemon () =
  if not (Sys.file_exists cli) then refuse "serve: %s is not built" cli;
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv =
    [| cli; "serve"; "-d"; "synthetic1"; "--port"; "0"; "--tenant"; "churn=synthetic2" |]
  in
  let pid = Unix.create_process cli argv null out_w Unix.stderr in
  Unix.close out_w;
  Unix.close null;
  let port =
    Option.bind (read_banner out_r) (fun banner ->
        List.find_map
          (fun w -> Scanf.sscanf_opt w "127.0.0.1:%d" Fun.id)
          (String.split_on_char ' ' banner))
  in
  match port with
  | Some port -> { pid; out = out_r; port }
  | None ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    Unix.close out_r;
    refuse "serve: the daemon printed no listening port"

let stop_daemon d conns =
  (match List.find_opt (fun c -> not c.closed) conns with
   | Some c -> (try exchange ~timeout:10. [ c ] [ (c, Other, "SHUTDOWN") ] with Refuse _ -> ())
   | None -> ());
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  let deadline = now_s () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now_s () < deadline -> Unix.sleepf 0.02; wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  Unix.close d.out

type rig = {
  daemon : daemon;
  steady : conn;
  churn : conn;
  warm_steady : string list;  (* statements sent before measuring *)
  warm_churn : string list;
}

let epoch_reply cmd =
  let rec has i =
    i + 6 <= String.length cmd.reply
    && (String.sub cmd.reply i 6 = "epoch " || has (i + 1))
  in
  has 0

(* Set-up: input generation, daemon start, both tenants' bootstrap
   epochs, and a steady warm-up so its window has settled. The warm-up
   statements come from one fixed stream, so every run starts measuring
   the same tuned daemon; the run's seed draws all measured traffic. *)
let setup ~seed =
  let inp = make_inputs ~seed in
  let daemon = start_daemon () in
  match
    let steady = connect daemon.port and churn = connect daemon.port in
    exchange [ steady; churn ] [ (churn, Other, "TENANT USE churn") ];
    let warm = reseed inp ~seed:0 in
    let warm_steady = List.init steady_warmup (fun _ -> steady_stmt warm) in
    let warm_churn = List.init churn_warmup (fun _ -> churn_stmt warm) in
    exchange [ steady; churn ]
      (List.map (fun s -> (steady, Stmt, "STMT " ^ s)) warm_steady
      @ List.map (fun s -> (churn, Stmt, "STMT " ^ s)) warm_churn);
    let bootstrapped c =
      List.exists (fun cmd -> epoch_reply cmd) c.log
    in
    if not (bootstrapped steady && bootstrapped churn) then
      refuse "serve: a tenant ran no bootstrap epoch during set-up";
    { daemon; steady; churn; warm_steady; warm_churn }
  with
  | s -> (inp, s)
  | exception e ->
    (try Unix.kill daemon.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] daemon.pid);
    raise e

(* ---- Measurement ---- *)

type measured = {
  steady_lat : float list;  (* STMT seconds from due to reply *)
  epochs : float list;  (* churn epoch seconds from due to held reply *)
  steady_epochs : int;
  late : float list;  (* generator lateness per command *)
  sent_steady : string list;  (* open-loop statements, in order *)
  sent_churn : string list;
}

(* Both connections' commands due at a fixed rate for [seconds].

   The daemon's sockets leave Nagle's algorithm on, so once two replies
   are in flight on a connection each later reply waits for the ACK
   that rides on the client's next command (delayed ACK): replies lag
   by one command interval. A paced client falls into that state at its
   first burst (an epoch's held replies, one late send) and stays in
   it, so when a run entered it would decide its latencies. Each
   connection's first slot therefore carries a pipelined STATS ahead of
   its command, and every run measures the state a long-lived paced
   client settles in. *)
let open_loop inp s ~seconds =
  let lead c due = ignore (send c Other ~due "STATS") in
  let n = int_of_float (rate *. float_of_int seconds) in
  let t0 = now_s () +. 0.05 in
  let ks = ref 0 and kc = ref 0 in
  let late = ref [] in
  let steady = ref [] and churn = ref [] in
  let cmds = ref [] in
  let tick now =
    while !ks < n && t0 +. (float_of_int !ks /. rate) <= now do
      let due = t0 +. (float_of_int !ks /. rate) in
      incr ks;
      let kind, text =
        if !ks mod 10 <> 0 then begin
          let st = steady_stmt inp in
          steady := st :: !steady;
          (Stmt, "STMT " ^ st)
        end
        else (Other, if !ks / 10 mod 2 = 1 then "CONFIG" else "STATS")
      in
      late := (now -. due) :: !late;
      if !ks = 1 then lead s.steady due;
      cmds := (`Steady, send s.steady kind ~due text) :: !cmds
    done;
    while !kc < n && t0 +. ((float_of_int !kc +. 0.5) /. rate) <= now do
      let due = t0 +. ((float_of_int !kc +. 0.5) /. rate) in
      incr kc;
      let st = churn_stmt inp in
      churn := st :: !churn;
      late := (now -. due) :: !late;
      if !kc = 1 then lead s.churn due;
      cmds := (`Churn, send s.churn Stmt ~due ("STMT " ^ st)) :: !cmds
    done;
    if !ks >= n && !kc >= n then None
    else
      Some
        (Float.min
           (t0 +. (float_of_int !ks /. rate))
           (t0 +. ((float_of_int !kc +. 0.5) /. rate)))
  in
  let complete =
    drive [ s.steady; s.churn ] ~deadline:(t0 +. float_of_int seconds +. drain_s) tick
  in
  if not complete then prerr_endline "perfbench: serve: replies still missing at the deadline";
  let lat who pred =
    List.filter_map
      (fun (w, c) ->
        if w = who && (not (Float.is_nan c.replied)) && pred c then Some (c.replied -. c.due)
        else None)
      !cmds
  in
  {
    steady_lat = lat `Steady (fun c -> c.kind = Stmt);
    epochs = lat `Churn epoch_reply;
    steady_epochs = List.length (lat `Steady (fun c -> c.kind = Stmt && epoch_reply c));
    late = !late;
    sent_steady = List.rev !steady;
    sent_churn = List.rev !churn;
  }

(* Closed loop: keep [sat_depth] STMTs in flight on steady for one
   second; statements answered per second. The first [sat_warm_legs]
   legs let the daemon's adaptive parse batching settle; the median of
   the next [sat_legs] is reported. *)
let saturation inp s =
  let leg () =
    let t0 = now_s () in
    let stop = t0 +. 1. in
    let issued = ref [] in
    let tick now =
      if now >= stop then None
      else begin
        while Queue.length s.steady.awaiting < sat_depth do
          issued := send s.steady Stmt ("STMT " ^ steady_stmt inp) :: !issued
        done;
        Some (now +. 0.05)
      end
    in
    if not (drive [ s.steady; s.churn ] ~deadline:(stop +. drain_s) tick) then
      refuse "serve: the saturation leg did not drain";
    let last = List.fold_left (fun acc c -> Float.max acc c.replied) t0 !issued in
    float_of_int (List.length !issued) /. (last -. t0)
  in
  let warm = List.init sat_warm_legs (fun _ -> leg ()) in
  let legs = List.init sat_legs (fun _ -> leg ()) in
  Printf.eprintf "perfbench: serve: saturation legs %s per s\n%!"
    (String.concat " " (List.map (Printf.sprintf "%.0f") (warm @ legs)));
  median legs

let parse_config_line line =
  match String.index_opt line '(' , String.rindex_opt line ')' , String.rindex_opt line ' ' with
  | Some i, Some j, Some k when i < j && j < k ->
    let cols = String.sub line (i + 1) (j - i - 1) in
    let ix =
      Index.make ~table:(String.sub line 0 i)
        (List.map String.trim (String.split_on_char ',' cols))
    in
    Some (ix, int_of_string (String.sub line (k + 1) (String.length line - k - 1)))
  | _ -> None

let read_config s c =
  let cmd = send c Other "CONFIG" in
  exchange [ s.steady; s.churn ] [];
  List.filter_map parse_config_line (List.rev cmd.detail)

let read_metrics s =
  let cmd = send s.steady Other "METRICS" in
  exchange [ s.steady; s.churn ] [];
  List.filter_map
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i ->
        Option.map
          (fun v -> (String.sub line 0 i, v))
          (float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)))
      | None -> None)
    cmd.detail

let is_err c = String.length c.reply >= 3 && String.sub c.reply 0 3 = "ERR"

type measurement = {
  inp : inputs;
  rig : rig;
  setup_s : float;
  m : measured;
  late_p99 : float;
  steady_config : (Index.t * int) list;
  churn_config : (Index.t * int) list;
  sat_rate : float;
  daemon_metrics : (string * float) list;
  rss : float;
  commands : int;
  failed : int;
}

(* Set up three times (the last daemon stays up), measure the open
   loop, read both tenants' configurations, run the saturation leg and
   read the daemon's metrics; the daemon is always stopped. *)
let measure ~seed ~seconds =
  let t0 = now_s () in
  let phase name = Printf.eprintf "perfbench: serve: %s at %.1f s\n%!" name (now_s () -. t0) in
  let setups =
    List.init 3 (fun i ->
        let (inp, s), dt = Im_util.Stopwatch.time (fun () -> setup ~seed) in
        if i < 2 then begin
          stop_daemon s.daemon [ s.steady; s.churn ];
          (None, dt)
        end
        else (Some (inp, s), dt))
  in
  let setup_s = median (List.map snd setups) in
  let inp, rig = Option.get (fst (List.nth setups 2)) in
  Fun.protect
    ~finally:(fun () -> stop_daemon rig.daemon [ rig.steady; rig.churn ])
    (fun () ->
      phase "set-up done";
      Gc.compact ();
      let m = open_loop inp rig ~seconds in
      phase "open loop done";
      let late_p99 = quantile 0.99 m.late in
      if late_p99 > late_bound_s then
        refuse "serve: the generator ran %.1f ms late at p99 (bound %.0f ms)"
          (late_p99 *. 1e3) (late_bound_s *. 1e3);
      if m.epochs = [] then refuse "serve: churn ran no epoch while measured";
      let steady_config = read_config rig rig.steady in
      let churn_config = read_config rig rig.churn in
      phase "configurations read";
      let sat_rate = saturation inp rig in
      phase "saturation done";
      let daemon_metrics = read_metrics rig in
      let rss = peak_rss_mb (Some rig.daemon.pid) in
      let all = List.concat_map (fun c -> c.log) [ rig.steady; rig.churn ] in
      let unanswered = List.filter (fun c -> Float.is_nan c.replied) all in
      let errors = List.filter is_err all in
      List.iter (fun c -> prerr_endline ("perfbench: serve: " ^ c.text ^ " -> " ^ c.reply)) errors;
      let extra = rig.steady.extra + rig.churn.extra in
      check (unanswered = [] && extra = 0)
        "serve: %d commands unanswered, %d replies unmatched"
        (List.length unanswered) extra;
      check (errors = []) "serve: %d ERR replies" (List.length errors);
      List.iter
        (fun (name, config, budget) ->
          let pages = List.fold_left (fun acc (_, p) -> acc + p) 0 config in
          check (pages <= budget) "serve: %s configuration of %d pages exceeds its %d-page budget"
            name pages budget)
        [ ("steady", steady_config, inp.budget1); ("churn", churn_config, inp.budget2) ];
      {
        inp; rig; setup_s; m; late_p99; steady_config; churn_config; sat_rate;
        daemon_metrics; rss;
        commands = List.length all;
        failed = List.length unanswered + List.length errors + extra;
      })

(* Steady's open-loop statements costed under its final configuration
   and under none, through a fresh service on the daemon's database. *)
let steady_cost_frac r =
  let db = synthetic1 () in
  let w =
    Workload.make (List.mapi (fun i sql -> parse db ~id:(Printf.sprintf "S%d" i) sql) r.m.sent_steady)
  in
  let svc = Service.create ~derive:true db in
  Service.workload_cost svc (List.map fst r.steady_config) w
  /. Service.workload_cost svc Config.empty w

let run_untraced ~seed ~seconds =
  let r = measure ~seed ~seconds in
  let ms xs p = 1e3 *. quantile p xs in
  Printf.printf
    "serve: %d steady STMT samples (p50 %.3f ms, p90 %.3f ms, p99 %.3f ms), %d churn \
     epochs (epoch_s %.4f s), %d steady epochs, generator p99 late %.3f ms\n"
    (List.length r.m.steady_lat) (ms r.m.steady_lat 0.5) (ms r.m.steady_lat 0.9)
    (ms r.m.steady_lat 0.99)
    (List.length r.m.epochs) (median r.m.epochs) r.m.steady_epochs (r.late_p99 *. 1e3);
  {
    correct = true;
    attempted = r.commands;
    failed = r.failed;
    metrics =
      [
        metric "setup_s" "s" r.setup_s;
        metric "answer_s" "s" (median r.m.epochs);
        metric "stmt_p50_ms" "ms" (ms r.m.steady_lat 0.5);
        metric "stmt_p90_ms" "ms" (ms r.m.steady_lat 0.9);
        metric "stmt_sat_per_s" "1/s" r.sat_rate;
        metric "rec_cost_frac" "frac" (steady_cost_frac r);
        metric "rec_pages_frac" "frac"
          (float_of_int (List.fold_left (fun a (_, p) -> a + p) 0 r.steady_config)
           /. float_of_int r.inp.budget1);
        metric "peak_rss_mb" "MiB" r.rss;
      ];
  }

(* ---- Traced run ---- *)

type replay = {
  mutable statements : int;
  mutable epochs : int;
  mutable fires : int;
  mutable clusters : int;
}

(* One tenant's statement sequence through the online service, the way
   the daemon's dispatch thread drives it: intake, and on a trigger the
   epoch thunk then its commit. *)
let replay_tenant tally db statements =
  let svc = Online.create ~pool:(Im_par.Pool.default ()) db ~budget_pages:(budget db) in
  List.iter
    (fun sql ->
      let _, trigger, _ = Trace.span "online.feed" (fun () -> Online.feed_batch_async svc [ sql ]) in
      Option.iter
        (fun trig ->
          let job = Online.begin_epoch svc trig in
          let o = Trace.span "online.epoch_search" job in
          Trace.span "online.epoch_commit" (fun () -> Online.commit_epoch svc o);
          tally.epochs <- tally.epochs + 1)
        trigger)
    statements;
  tally.statements <- tally.statements + List.length statements;
  tally.clusters <- tally.clusters + Im_online.Window.cluster_count (Online.window svc);
  let fires =
    match List.assoc_opt "drift fires" (Online.stats svc) with
    | Some v -> int_of_string v
    | None -> 0
  in
  tally.fires <- tally.fires + fires

let run_traced ~seed ~seconds =
  let r = measure ~seed ~seconds in
  let tenants =
    [ (synthetic1 (), r.rig.warm_steady @ r.m.sent_steady);
      (synthetic2 (), r.rig.warm_churn @ r.m.sent_churn) ]
  in
  let replay_all () =
    let tally = { statements = 0; epochs = 0; fires = 0; clusters = 0 } in
    let (), dt =
      Im_util.Stopwatch.time (fun () ->
          List.iter (fun (db, sts) -> replay_tenant tally db sts) tenants)
    in
    (tally, dt)
  in
  let _, plain_s = Trace.without replay_all in
  let tally, traced_s = replay_all () in
  List.iter
    (fun (db, sts) ->
      List.iteri
        (fun i sql ->
          ignore
            (Trace.span "sqlir.parse" (fun () ->
                 Im_sqlir.Parser.parse_query ~schema:(Database.schema db)
                   ~id:(Printf.sprintf "S%d" i) sql)))
        sts)
    tenants;
  let d name = Option.value ~default:0. (List.assoc_opt name r.daemon_metrics) in
  let sum_prefix prefix =
    List.fold_left
      (fun acc (k, v) ->
        if String.length k >= String.length prefix
           && String.sub k 0 (String.length prefix) = prefix
        then acc +. v
        else acc)
      0. r.daemon_metrics
  in
  let layer = Trace.layer in
  let per_epoch name =
    (layer name).Trace.l_total_s /. float_of_int (max 1 (layer name).Trace.l_count)
  in
  let hits = d "costsvc_hits_total" and misses = d "costsvc_misses_total" in
  {
    correct = true;
    attempted = r.commands;
    failed = r.failed;
    metrics =
      [
        metric "sqlir.parse_us" "us"
          (1e6 *. (layer "sqlir.parse").Trace.l_total_s
           /. float_of_int (max 1 (layer "sqlir.parse").Trace.l_count));
        metric "online.feed_us" "us"
          (1e6 *. (layer "online.feed").Trace.l_total_s /. float_of_int (max 1 tally.statements));
        metric "online.epoch_search_s" "s" (per_epoch "online.epoch_search");
        metric "online.epoch_commit_s" "s" (per_epoch "online.epoch_commit");
        metric "online.epochs" "count" (float_of_int tally.epochs);
        metric "online.drift_fires" "count" (float_of_int tally.fires);
        metric "online.window_clusters" "count" (float_of_int tally.clusters);
        metric "server.stmt_p99_s" "s" (d "server_command_seconds_p99{verb=\"stmt\"}");
        metric "server.dispatch_stall_s" "s" (d "server_dispatch_stall_seconds");
        metric "server.fairness_deferred" "count" (d "server_fairness_deferred_total");
        metric "server.bytes_out" "bytes" (d "server_bytes_out_total");
        metric "costsvc.hits" "count" hits;
        metric "costsvc.misses" "count" misses;
        metric "costsvc.hit_frac" "frac" (hits /. Float.max 1. (hits +. misses));
        metric "costsvc.evictions" "count" (d "costsvc_evictions_total");
        metric "costsvc.hit_s" "s" (d "costsvc_lookup_seconds_sum{outcome=\"hit\"}");
        metric "costsvc.miss_s" "s" (d "costsvc_lookup_seconds_sum{outcome=\"miss\"}");
        metric "derive.derived" "count" (d "derive_hits_total");
        metric "derive.fallbacks" "count" (sum_prefix "derive_fallback_total");
        metric "derive.atom_hits" "count" (d "derive_atom_hits_total");
        metric "derive.atom_misses" "count" (d "derive_atom_misses_total");
        metric "optimizer.invocations" "count" (sum_prefix "optimizer_calls_total");
        metric "par.tasks" "count" (d "par_tasks_total");
        metric "par.task_s" "s" (d "par_task_seconds_sum");
        metric "loadgen.late_p99_ms" "ms" (r.late_p99 *. 1e3);
        metric "loadgen.stmt_p99_ms" "ms" (1e3 *. quantile 0.99 r.m.steady_lat);
        metric "trace.overhead_frac" "frac" ((traced_s -. plain_s) /. plain_s);
      ];
  }

let run ~seed ~seconds ~trace =
  if trace then run_traced ~seed ~seconds else run_untraced ~seed ~seconds

(* Fault-path tests for the `serve` daemon, against the real CLI binary
   on an ephemeral port.

   These pin the event-loop regressions this repo has actually hit:

   - disconnect mid-reply: a peer that pipelines and closes without
     reading must cost one connection (counted write error), never the
     serve loop;
   - pipelined batches must drain linearly and answer in order;
   - half close (shutdown(SHUT_WR)) after pipelining must still
     deliver every queued reply — the old loop closed on read() = 0
     and discarded the whole output queue;
   - a connect burst must be accepted within one loop round, not one
     accept per round;
   - rejected connections are written best-effort on a nonblocking fd,
     so a connect-and-never-read client cannot stall the accept loop;
   - an oversized line answers `ERR line too long` (counted) before
     the close, instead of silently dropping the connection;
   - an epoch that raises, whether a STMT or EPOCH triggered it, answers
     ERR and never takes the daemon down;
   - a tenant dropped while its epoch is in flight;
   - [Server.create] rejects limits that would refuse every client,
     never reap or reap everything, before it opens a socket;
   - a STMT whose integer literal overflows an OCaml int answers ERR;
     the lexer's [int_of_string] used to escape the event loop and end
     the daemon;
   - running out of file descriptors: accept(2)'s EMFILE used to end
     the daemon; now the connects wait in the backlog until a
     connection closes;
   - a no-argument verb followed by more text answers ERR and does
     nothing else ([SHUTDOWN now] used to stop the daemon);
   - a paced client must not fall into the Nagle/delayed-ACK
     lock-step: with Nagle on, each reply waited for the ACK riding on
     the client's next command and arrived one command interval late;
   - the replies of one pipelined write leave in a few coalesced
     writes, not one write(2) per reply. *)

let cli () =
  let here = Filename.dirname Sys.executable_name in
  let path =
    Filename.concat (Filename.dirname here)
      (Filename.concat "bin" "index_merge_cli.exe")
  in
  if not (Sys.file_exists path) then
    Alcotest.fail ("CLI binary not found at " ^ path);
  path

type daemon = {
  pid : int;
  stdout : in_channel;
  port : int;
}

(* With [nofile], a shell sets the daemon's soft and hard
   RLIMIT_NOFILE and execs it in place, so [pid] is still the
   daemon's. The pipe and the clients' sockets are close-on-exec, so a
   daemon inherits no descriptor of an earlier test. *)
let start_daemon ?(check_every = 1_000_000) ?(read_timeout = "30")
    ?(args = []) ?(env = []) ?nofile () =
  let out_read, out_write = Unix.pipe ~cloexec:true () in
  let argv =
    [
      cli (); "serve"; "-d"; "synthetic1"; "--port"; "0"; "--check-every";
      string_of_int check_every; "--read-timeout"; read_timeout;
    ]
    @ args
  in
  let argv =
    match nofile with
    | None -> argv
    | Some n ->
      "/bin/sh" :: "-c"
      :: Printf.sprintf "ulimit -n %d && exec \"$0\" \"$@\"" n
      :: argv
  in
  let pid =
    Unix.create_process_env (List.hd argv) (Array.of_list argv)
      (Array.append (Unix.environment ()) (Array.of_list env))
      Unix.stdin out_write Unix.stderr
  in
  Unix.close out_write;
  let stdout = Unix.in_channel_of_descr out_read in
  let banner = input_line stdout in
  let port =
    try
      Scanf.sscanf
        (List.find
           (fun s ->
             String.length s > 10 && String.sub s 0 10 = "127.0.0.1:")
           (String.split_on_char ' ' banner))
        "127.0.0.1:%d" (fun p -> p)
    with _ -> Alcotest.fail ("no port in banner: " ^ banner)
  in
  { pid; stdout; port }

let stop_daemon d =
  try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ?rcvbuf port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (match rcvbuf with
   | Some n -> Unix.setsockopt_int fd Unix.SO_RCVBUF n
   | None -> ());
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let request c line =
  output_string c.oc (line ^ "\n");
  flush c.oc;
  input_line c.ic

let expect_prefix what prefix resp =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S starts with %S" what resp prefix)
    true
    (String.length resp >= String.length prefix
    && String.sub resp 0 (String.length prefix) = prefix)

(* Read a METRICS reply ("OK <n>" then n dump lines) into an assoc of
   full series name (labels included) -> float value. *)
let read_metrics c =
  let head = request c "METRICS" in
  expect_prefix "metrics" "OK " head;
  let n = Scanf.sscanf head "OK %d" (fun n -> n) in
  List.init n (fun _ ->
      let line = input_line c.ic in
      match String.rindex_opt line ' ' with
      | None -> Alcotest.fail ("unparseable metric line: " ^ line)
      | Some i ->
        ( String.sub line 0 i,
          float_of_string
            (String.sub line (i + 1) (String.length line - i - 1)) ))

let metric metrics name =
  match List.assoc_opt name metrics with
  | Some v -> v
  | None -> Alcotest.fail ("metric not exported: " ^ name)

(* ---- Tests ---- *)

let test_disconnect_mid_reply () =
  let d = start_daemon () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      (* Client 1: pipeline three commands in one small write, then
         close without ever reading a byte. *)
      let c1 = connect d.port in
      output_string c1.oc
        "STMT SELECT t0_c0 FROM t0 WHERE t0_c0 = 1\n\
         STMT SELECT t0_c1 FROM t0 WHERE t0_c1 = 2\n\
         EPOCH\n";
      flush c1.oc;
      Unix.close c1.fd;
      (* Client 2: the daemon must still answer, and a STMT+EPOCH
         sequence must leave visible traces in the registry. *)
      let c2 = connect d.port in
      expect_prefix "stmt after disconnect" "OK observed"
        (request c2 "STMT SELECT t0_c2 FROM t0 WHERE t0_c2 = 3");
      expect_prefix "epoch after disconnect" "OK epoch" (request c2 "EPOCH");
      let metrics = read_metrics c2 in
      Alcotest.(check bool) "server_commands_total > 0" true
        (metric metrics "server_commands_total" > 0.);
      Alcotest.(check bool) "write errors counted" true
        (metric metrics "server_write_errors_total" >= 1.);
      Alcotest.(check bool) "costsvc hits nonzero after epoch" true
        (metric metrics "costsvc_hits_total" > 0.);
      Alcotest.(check bool) "costsvc misses nonzero after epoch" true
        (metric metrics "costsvc_misses_total" > 0.);
      Alcotest.(check bool) "live gauge excludes dead conn" true
        (metric metrics "server_connections_live" = 1.);
      expect_prefix "quit" "OK bye" (request c2 "QUIT"))

let test_pipelined_batch () =
  (* 1000 commands in a single write: the drain must stay linear in the
     buffer (the old copy-per-line loop made this quadratic) and every
     command must be answered in order. *)
  let n = 1000 in
  let d = start_daemon () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c = connect d.port in
      let b = Buffer.create (n * 48) in
      for i = 1 to n do
        Buffer.add_string b
          (Printf.sprintf "STMT SELECT t0_c%d FROM t0 WHERE t0_c%d = %d\n"
             (i mod 3) (i mod 3) i)
      done;
      output_string c.oc (Buffer.contents b);
      flush c.oc;
      for i = 1 to n do
        expect_prefix (Printf.sprintf "batch reply %d" i) "OK observed"
          (input_line c.ic)
      done;
      let stats = request c "STATS" in
      expect_prefix "stats" "OK " stats;
      Alcotest.(check bool)
        ("all statements ingested: " ^ stats)
        true
        (Astring_contains.contains stats (Printf.sprintf "statements=%d" n)))

let test_half_close_replies_survive () =
  (* The half-close reply-loss regression: pipeline N commands, then
     shutdown(SHUT_WR) before reading anything. The daemon's read()
     returns 0 while most replies are still queued (the tiny inherited
     send buffer keeps them out of the kernel); the old loop closed the
     connection right there and discarded every one of them. *)
  let n = 500 in
  let d =
    start_daemon
      ~args:[ "--max-output-bytes"; "8000000" ]
      ~env:[ "IM_SERVE_SNDBUF=4096" ] ()
  in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c = connect ~rcvbuf:4096 d.port in
      let b = Buffer.create (n * 8) in
      for _ = 1 to n do
        Buffer.add_string b "STATS\n"
      done;
      output_string c.oc (Buffer.contents b);
      flush c.oc;
      Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
      (* Now read: every one of the n replies must arrive before EOF. *)
      let received = ref 0 in
      (try
         while true do
           let line = input_line c.ic in
           expect_prefix "half-close reply" "OK " line;
           incr received
         done
       with End_of_file -> ());
      Alcotest.(check int) "all pipelined replies delivered" n !received;
      (* The daemon is still healthy for the next client. *)
      let c2 = connect d.port in
      expect_prefix "stats after half-close" "OK " (request c2 "STATS");
      expect_prefix "quit" "OK bye" (request c2 "QUIT"))

let test_accept_burst () =
  (* A burst of connects arriving while the daemon is busy chewing a
     pipelined batch must all be accepted in one loop round. The old
     loop accepted exactly one per round, so the burst serialized and
     server_accept_burst_max stayed at 1 (the metric did not even
     exist). *)
  let d = start_daemon () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      (* Keep the daemon busy: a large pipelined batch it will work
         through over several bounded rounds. Every statement fails to
         parse (a dangling ORDER BY), so none reaches the window and no
         epoch can fire: an epoch would pause this connection and leave
         the loop idle while the burst connects. The ~540 KB of ERR
         replies stay under the output cap. *)
      let busy = connect d.port in
      let b = Buffer.create (15_000 * 56) in
      for i = 1 to 15_000 do
        Buffer.add_string b
          (Printf.sprintf
             "STMT SELECT t0_c%d FROM t0 WHERE t0_c%d = %d ORDER BY\n"
             (i mod 3) (i mod 3) i)
      done;
      output_string busy.oc (Buffer.contents b);
      flush busy.oc;
      (* Burst 30 connects while it chews. The TCP handshake completes
         against the listen backlog, so these return before the daemon
         accepts. *)
      let burst = List.init 30 (fun _ -> connect d.port) in
      List.iter
        (fun c -> expect_prefix "burst stats" "OK " (request c "STATS"))
        burst;
      let m = read_metrics (List.hd burst) in
      Alcotest.(check (float 0.)) "no epoch ran" 0.
        (List.fold_left
           (fun acc (name, v) ->
             if String.starts_with ~prefix:"online_epochs_total" name then
               acc +. v
             else acc)
           0. m);
      Alcotest.(check bool)
        (Printf.sprintf "accept burst max %.0f >= 2"
           (metric m "server_accept_burst_max"))
        true
        (metric m "server_accept_burst_max" >= 2.);
      List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        (busy :: burst))

let test_overload_reject_best_effort () =
  (* Overflowing connections get a best-effort error on a nonblocking
     fd; clients that connect and never read must not stall the accept
     loop (the old path wrote on a blocking fd before set_nonblock —
     latent until the message outgrows the kernel buffer, pinned here
     structurally: the daemon stays responsive under a pile of
     never-reading rejects, and each reject still sees the error). *)
  let d = start_daemon ~args:[ "--max-connections"; "3" ] () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let admitted = List.init 3 (fun _ -> connect d.port) in
      (* Over the cap: 20 connects that never read. *)
      let rejected = List.init 20 (fun _ -> connect d.port) in
      (* The daemon must keep serving admitted clients promptly. *)
      List.iter
        (fun c -> expect_prefix "admitted stats" "OK " (request c "STATS"))
        admitted;
      (* Each reject got the diagnostic, then EOF. *)
      List.iter
        (fun c ->
          expect_prefix "reject line" "ERR too many connections"
            (input_line c.ic);
          Alcotest.(check bool) "reject closed" true
            (try
               ignore (input_line c.ic);
               false
             with End_of_file -> true);
          try Unix.close c.fd with Unix.Unix_error _ -> ())
        rejected;
      let m = read_metrics (List.hd admitted) in
      Alcotest.(check bool) "rejected counted" true
        (metric m "server_connections_rejected_total" >= 20.);
      (* Freeing a slot readmits. *)
      Unix.close (List.nth admitted 2).fd;
      Unix.sleepf 0.05;
      let late = connect d.port in
      expect_prefix "readmitted" "OK " (request late "STATS"))

let test_oversized_line () =
  let d = start_daemon () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c = connect d.port in
      (* A hair over a megabyte with no newline: abuse. Write just past
         the cap and stop, so the daemon consumes everything before
         closing (no unread bytes, no RST racing the diagnostic). *)
      let total = 1_002_000 in
      let chunk = String.make 4096 'a' in
      let sent = ref 0 in
      (try
         while !sent < total do
           let k = min 4096 (total - !sent) in
           output_string c.oc (String.sub chunk 0 k);
           flush c.oc;
           sent := !sent + k
         done
       with Sys_error _ | Unix.Unix_error _ -> ());
      (* The old daemon closed silently; now the abuse is diagnosed
         before the close and counted. *)
      expect_prefix "overlong diagnostic" "ERR line too long"
        (input_line c.ic);
      let closed =
        try
          ignore (input_line c.ic);
          false
        with End_of_file | Sys_error _ | Unix.Unix_error _ -> true
      in
      Alcotest.(check bool) "oversized connection dropped" true closed;
      (* The daemon itself survives, keeps serving, and counted it. *)
      let c2 = connect d.port in
      let m = read_metrics c2 in
      Alcotest.(check bool) "overlong line counted" true
        (metric m "server_overlong_lines_total" >= 1.);
      expect_prefix "stats after abuse" "OK " (request c2 "STATS");
      expect_prefix "quit" "OK bye" (request c2 "QUIT"))

let read_config c =
  let head = request c "CONFIG" in
  expect_prefix "config" "OK " head;
  List.init (Scanf.sscanf head "OK %d" Fun.id) (fun _ -> input_line c.ic)

let test_failed_epoch_keeps_last_config () =
  (* IM_EPOCH_FAIL=2: the daemon's second epoch raises on the epoch
     worker. The asker gets ERR epoch failed, the tenant keeps the
     configuration its first epoch committed, and is not left marked
     in flight: the third epoch commits. *)
  let d = start_daemon ~env:[ "IM_EPOCH_FAIL=2" ] () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c = connect d.port in
      List.iter
        (fun sql -> expect_prefix "seed stmt" "OK observed" (request c ("STMT " ^ sql)))
        [
          "SELECT t0_c0 FROM t0 WHERE t0_c0 = 1";
          "SELECT t0_c1 FROM t0 WHERE t0_c1 = 2";
        ];
      expect_prefix "first epoch commits" "OK epoch" (request c "EPOCH");
      let committed = read_config c in
      Alcotest.(check bool) "first epoch recommended indexes" true (committed <> []);
      expect_prefix "second epoch fails" "ERR epoch failed" (request c "EPOCH");
      Alcotest.(check (list string)) "last committed config kept" committed
        (read_config c);
      expect_prefix "stmt after failure" "OK observed"
        (request c "STMT SELECT t0_c1 FROM t0 WHERE t0_c1 = 3");
      expect_prefix "next epoch commits" "OK epoch" (request c "EPOCH");
      expect_prefix "quit" "OK bye" (request c "QUIT"))

(* Statement [i] of a warm-up run; the 24th fires the bootstrap epoch
   (default warmup; the drift check is pushed out of reach). *)
let warmup_stmt i =
  Printf.sprintf "STMT SELECT t0_c%d FROM t0 WHERE t0_c%d = %d" (i mod 3)
    (i mod 3) i

let test_stmt_triggered_epoch_failure () =
  (* IM_EPOCH_FAIL=1: the bootstrap epoch the 24th STMT triggers
     raises. That STMT answers ERR, the daemon stays live, and the next
     STMT re-triggers the bootstrap, which commits. *)
  let d = start_daemon ~env:[ "IM_EPOCH_FAIL=1" ] () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c = connect d.port in
      for i = 1 to 23 do
        expect_prefix "warm-up stmt" "OK observed" (request c (warmup_stmt i))
      done;
      expect_prefix "bootstrap stmt" "ERR epoch failed"
        (request c (warmup_stmt 24));
      expect_prefix "daemon live" "OK " (request c "STATS");
      expect_prefix "next stmt commits the bootstrap"
        "OK observed epoch trigger=bootstrap"
        (request c (warmup_stmt 25));
      Alcotest.(check bool) "bootstrap installed indexes" true
        (read_config c <> []);
      expect_prefix "quit" "OK bye" (request c "QUIT"))

let test_pipelined_epoch_failure () =
  (* The same failure inside one pipelined write: the statements behind
     the failing trigger are replayed, the first of them re-triggers the
     bootstrap, and every command gets exactly one reply, in order. *)
  let n = 30 in
  let d = start_daemon ~env:[ "IM_EPOCH_FAIL=1" ] () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c = connect d.port in
      let b = Buffer.create (n * 48) in
      for i = 1 to n do
        Buffer.add_string b (warmup_stmt i ^ "\n")
      done;
      Buffer.add_string b "QUIT\n";
      output_string c.oc (Buffer.contents b);
      flush c.oc;
      let replies = ref [] in
      (try
         while true do
           replies := input_line c.ic :: !replies
         done
       with End_of_file -> ());
      let replies = List.rev !replies in
      Alcotest.(check int) "one reply per command" (n + 1) (List.length replies);
      List.iteri
        (fun i reply ->
          let what = Printf.sprintf "reply %d" (i + 1) in
          match i + 1 with
          | 24 -> expect_prefix what "ERR epoch failed" reply
          | 25 ->
            expect_prefix what "OK observed epoch trigger=bootstrap" reply
          | k when k = n + 1 -> expect_prefix what "OK bye" reply
          | _ ->
            Alcotest.(check string) what "OK observed" reply)
        replies;
      let c2 = connect d.port in
      let stats = request c2 "STATS" in
      Alcotest.(check bool)
        ("every statement ingested: " ^ stats)
        true
        (Astring_contains.contains stats (Printf.sprintf "statements=%d" n)))

let test_tenant_dropped_mid_epoch () =
  (* Connection A forces a slow epoch on tenant x; connection B drops x
     while it runs. A still gets exactly one reply to its EPOCH (the
     epoch commits to the dropped session and answers as usual), then
     finds itself unbound; the daemon keeps serving and shuts down
     cleanly. *)
  let d =
    start_daemon
      ~args:[ "--tenant"; "x=synthetic1" ]
      ~env:[ "IM_EPOCH_DELAY_MS=1500" ] ()
  in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let a = connect d.port in
      expect_prefix "bind x" "OK tenant x" (request a "TENANT USE x");
      expect_prefix "seed x" "OK observed" (request a (warmup_stmt 1));
      output_string a.oc "EPOCH\n";
      flush a.oc;
      Unix.sleepf 0.3;
      let b = connect d.port in
      expect_prefix "drop x mid-epoch" "OK tenant x dropped conns=1"
        (request b "TENANT DROP x");
      expect_prefix "A's epoch reply" "OK epoch trigger=forced"
        (input_line a.ic);
      expect_prefix "A unbound" "ERR no tenant bound"
        (request a (warmup_stmt 2));
      let head = request b "TENANT LIST" in
      let rows =
        List.init (Scanf.sscanf head "OK %d" Fun.id) (fun _ -> input_line b.ic)
      in
      Alcotest.(check bool)
        ("x gone from " ^ String.concat " | " rows)
        false
        (List.exists (fun r -> String.length r > 2 && String.sub r 0 2 = "x ") rows);
      expect_prefix "stats" "OK " (request b "STATS");
      expect_prefix "shutdown" "OK shutting down" (request b "SHUTDOWN");
      match Unix.waitpid [] d.pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon did not exit cleanly")

let test_reap_spares_inflight_epoch () =
  (* A connection waiting on an off-thread epoch is idle through no
     fault of its own: the reaper must not collect it while the result
     is pending delivery. Injected delay (3 s) far exceeds the read
     timeout (1 s); without the in-flight exemption the connection is
     reaped around the 1 s mark and the reply is lost. *)
  let d =
    start_daemon ~read_timeout:"1" ~env:[ "IM_EPOCH_DELAY_MS=3000" ] ()
  in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c = connect d.port in
      expect_prefix "seed stmt" "OK observed"
        (request c "STMT SELECT t0_c0 FROM t0 WHERE t0_c0 = 1");
      let t0 = Unix.gettimeofday () in
      let reply = request c "EPOCH" in
      let elapsed = Unix.gettimeofday () -. t0 in
      expect_prefix "epoch survives reap window" "OK epoch" reply;
      Alcotest.(check bool)
        (Printf.sprintf "epoch ran with the injected delay (%.2fs)" elapsed)
        true (elapsed >= 2.0);
      (* The same connection is still usable after delivery... *)
      expect_prefix "stmt after epoch" "OK observed"
        (request c "STMT SELECT t0_c1 FROM t0 WHERE t0_c1 = 2");
      (* ...and the reaper itself still works: an idle bystander that
         is owed nothing dies at the timeout. *)
      let idle = connect d.port in
      Unix.sleepf 2.0;
      let c2 = connect d.port in
      let m = read_metrics c2 in
      Alcotest.(check bool) "idle bystander reaped" true
        (metric m "server_connections_reaped_total" >= 1.);
      Alcotest.(check bool) "epoch was offloaded" true
        (metric m "server_epoch_offloaded_total" >= 1.);
      (try Unix.close idle.fd with Unix.Unix_error _ -> ());
      expect_prefix "quit" "OK bye" (request c2 "QUIT"))

let test_create_validation () =
  (* A listener already holds the port: a [Server.create] that opened
     its socket before validating would raise EADDRINUSE instead. *)
  let held = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close held)
    (fun () ->
      Unix.bind held (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen held 1;
      let port =
        match Unix.getsockname held with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> assert false
      in
      let db =
        Im_workload.Synthetic.database ~seed:1
          {
            Im_workload.Synthetic.sp_name = "tiny";
            sp_tables = 2;
            sp_cols_lo = 3;
            sp_cols_hi = 4;
            sp_rows_lo = 50;
            sp_rows_hi = 60;
          }
      in
      let service = Im_online.Service.create db ~budget_pages:100 in
      let create ?max_connections ?read_timeout ?max_output_bytes () =
        Im_online.Server.create ~port ?max_connections ?read_timeout
          ?max_output_bytes service
      in
      let rejects what msg f =
        Alcotest.check_raises what (Invalid_argument msg) (fun () ->
            ignore (f () : Im_online.Server.t))
      in
      let connections = "Server.create: max_connections < 1" in
      let timeout = "Server.create: read_timeout must be finite and > 0" in
      rejects "no connections" connections (create ~max_connections:0);
      rejects "negative connections" connections
        (create ~max_connections:(-3));
      rejects "nan timeout" timeout (create ~read_timeout:Float.nan);
      rejects "infinite timeout" timeout (create ~read_timeout:Float.infinity);
      rejects "zero timeout" timeout (create ~read_timeout:0.);
      rejects "negative timeout" timeout (create ~read_timeout:(-1.));
      rejects "no output" "Server.create: max_output_bytes < 1"
        (create ~max_output_bytes:0))

let test_overflowing_literal () =
  let d = start_daemon () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c = connect d.port in
      let overflow =
        "STMT SELECT COUNT(*) FROM t0 WHERE t0.t0_c1 = 99999999999999999999"
      in
      let expect_overflow what =
        let resp = request c overflow in
        expect_prefix what "ERR " resp;
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names the range" what resp)
          true
          (Astring_contains.contains resp "integer literal out of range")
      in
      expect_overflow "overflow";
      (* The same shape with a literal that fits parses and is cached;
         the overflowing one still answers ERR after it. *)
      expect_prefix "fitting literal" "OK observed"
        (request c "STMT SELECT COUNT(*) FROM t0 WHERE t0.t0_c1 = 9");
      expect_overflow "overflow after a cached shape";
      let c2 = connect d.port in
      expect_prefix "stats on a second connection" "OK " (request c2 "STATS");
      expect_prefix "quit" "OK bye" (request c2 "QUIT"))

let alive d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> true
  | _ -> false

(* Wait at most [within] seconds for one STATS reply on each client:
   the clients that answered, and the ones still waiting. *)
let await_stats clients ~within =
  let deadline = Unix.gettimeofday () +. within in
  let rec go answered waiting =
    let left = deadline -. Unix.gettimeofday () in
    if waiting = [] || left <= 0. then (answered, waiting)
    else
      match Unix.select (List.map (fun c -> c.fd) waiting) [] [] left with
      | [], _, _ -> (answered, waiting)
      | ready, _, _ ->
        let now, still =
          List.partition (fun c -> List.mem c.fd ready) waiting
        in
        List.iter
          (fun c -> expect_prefix "stats reply" "OK " (input_line c.ic))
          now;
        go (now @ answered) still
  in
  go [] clients

let test_out_of_descriptors () =
  (* 40 clients against a daemon allowed 32 descriptors (soft and hard
     limit, so it cannot raise them) and 64 connections: accept runs
     out of descriptors long before the connection cap. *)
  let d = start_daemon ~nofile:32 ~args:[ "--max-connections"; "64" ] () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let clients = List.init 40 (fun _ -> connect d.port) in
      List.iter
        (fun c ->
          output_string c.oc "STATS\n";
          flush c.oc)
        clients;
      let answered, waiting = await_stats clients ~within:1. in
      Alcotest.(check bool) "daemon alive after EMFILE" true (alive d);
      Alcotest.(check bool)
        (Printf.sprintf "admitted connections answer (%d)"
           (List.length answered))
        true (answered <> []);
      Alcotest.(check bool)
        (Printf.sprintf "the limit held some back (%d waiting)"
           (List.length waiting))
        true (waiting <> []);
      (* Closing the admitted connections frees descriptors: the ones
         waiting in the backlog are accepted and answered. *)
      List.iter (fun c -> Unix.close c.fd) answered;
      let late, still = await_stats waiting ~within:10. in
      Alcotest.(check int) "every waiting client answered" 0
        (List.length still);
      Alcotest.(check bool) "daemon alive" true (alive d);
      let c = List.hd late in
      expect_prefix "shutdown" "OK shutting down" (request c "SHUTDOWN");
      match Unix.waitpid [] d.pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon did not exit cleanly")

let test_strict_verbs () =
  let d = start_daemon () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c = connect d.port in
      expect_prefix "stmt" "OK observed"
        (request c "STMT SELECT t0_c0 FROM t0 WHERE t0_c0 = 1");
      List.iter
        (fun line -> expect_prefix line "ERR usage: " (request c line))
        [
          "STATS now"; "CONFIG 0"; "EPOCH now"; "epoch force"; "METRICS all";
          "QUIT now"; "SHUTDOWN now"; "shutdown please";
        ];
      (* None of them acted: no epoch ran, the connection is open and
         the daemon still serves. *)
      let stats = request c "STATS" in
      expect_prefix "stats" "OK " stats;
      Alcotest.(check bool)
        (Printf.sprintf "no epoch in %S" stats)
        true
        (Astring_contains.contains stats " epochs=0/0/0 ");
      Alcotest.(check bool) "daemon alive" true (alive d);
      expect_prefix "shutdown" "OK shutting down" (request c "SHUTDOWN");
      match Unix.waitpid [] d.pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "daemon did not exit cleanly")

let test_paced_client_no_lockstep () =
  (* An open-loop client: each STATS is sent on a 20 ms schedule
     whether or not earlier replies are in, and each reply is timed
     from its own command's send. The pipelined pair ahead of them puts
     two replies in flight at once, which is what starts the
     lock-step. *)
  let interval = 0.02 and n = 50 in
  let total = n + 2 in
  let d = start_daemon () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c = connect d.port in
      Unix.setsockopt c.fd Unix.TCP_NODELAY true;
      (* A fresh connection acknowledges its first segments at once
         (quick-ACK), which would break the lock-step before it forms;
         request/reply warm-ups move the client to delayed ACKs. *)
      for _ = 1 to 32 do
        expect_prefix "warm-up stats" "OK " (request c "STATS")
      done;
      let sent = Array.make total 0. and arrived = Array.make total 0. in
      let send i text =
        sent.(i) <- Unix.gettimeofday ();
        ignore (Unix.write_substring c.fd text 0 (String.length text))
      in
      send 0 "STATS\nSTATS\n";
      sent.(1) <- sent.(0);
      let due k = sent.(0) +. (interval *. float_of_int (k - 1)) in
      let deadline = sent.(0) +. 10. in
      let pending = Buffer.create 4096 and chunk = Bytes.create 4096 in
      let next = ref 2 and got = ref 0 in
      while !got < total && Unix.gettimeofday () < deadline do
        let now = Unix.gettimeofday () in
        let wait = if !next < total then due !next -. now else deadline -. now in
        (match Unix.select [ c.fd ] [] [] (Float.max 0. wait) with
         | [], _, _ -> ()
         | _ ->
           let k = Unix.read c.fd chunk 0 (Bytes.length chunk) in
           if k = 0 then Alcotest.fail "daemon closed the connection";
           let now = Unix.gettimeofday () in
           Buffer.add_subbytes pending chunk 0 k;
           let lines = String.split_on_char '\n' (Buffer.contents pending) in
           let rec take = function
             | [ partial ] ->
               Buffer.clear pending;
               Buffer.add_string pending partial
             | line :: rest ->
               expect_prefix "stats reply" "OK " line;
               arrived.(!got) <- now;
               incr got;
               take rest
             | [] -> ()
           in
           take lines);
        if !next < total && Unix.gettimeofday () >= due !next then begin
          send !next "STATS\n";
          incr next
        end
      done;
      Alcotest.(check int) "every command answered" total !got;
      let lat = Array.init n (fun i -> arrived.(i + 2) -. sent.(i + 2)) in
      Array.sort compare lat;
      let median = lat.(n / 2) in
      Alcotest.(check bool)
        (Printf.sprintf "paced reply median %.2f ms < 5 ms (max %.2f ms)"
           (median *. 1e3) (lat.(n - 1) *. 1e3))
        true (median < 0.005))

let test_replies_coalesced () =
  (* 200 STMTs in one client write: each dispatch turn's replies (and
     the bootstrap epoch's held reply) leave in one write(2), so the
     daemon needs a handful of writes, not 200. *)
  let n = 200 in
  let d = start_daemon () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c = connect d.port in
      let b = Buffer.create (n * 48) in
      for i = 1 to n do
        Buffer.add_string b (warmup_stmt i ^ "\n")
      done;
      output_string c.oc (Buffer.contents b);
      flush c.oc;
      let received = ref 0 in
      for i = 1 to n do
        let line = input_line c.ic in
        expect_prefix (Printf.sprintf "reply %d" i) "OK observed" line;
        received := !received + String.length line + 1
      done;
      (* The registry is read before the METRICS reply is written, so
         the counters cover exactly the 200 replies. *)
      let m = read_metrics (connect d.port) in
      let writes = metric m "server_writes_total" in
      let bytes = metric m "server_bytes_out_total" in
      Alcotest.(check (float 0.)) "every reply byte counted"
        (float_of_int !received) bytes;
      Alcotest.(check bool)
        (Printf.sprintf "%.0f writes for %d replies (%.0f bytes each) <= 25"
           writes n (bytes /. writes))
        true
        (writes >= 1. && writes <= 25.))

let () =
  (* Writes to dead sockets must surface as EPIPE, not kill this test
     process. *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  Alcotest.run "im_server_faults"
    [
      ( "daemon faults",
        [
          Alcotest.test_case "disconnect mid-reply" `Slow
            test_disconnect_mid_reply;
          Alcotest.test_case "pipelined 1k batch" `Slow test_pipelined_batch;
          Alcotest.test_case "half-close replies survive" `Slow
            test_half_close_replies_survive;
          Alcotest.test_case "accept burst in one round" `Slow
            test_accept_burst;
          Alcotest.test_case "overload reject best-effort" `Slow
            test_overload_reject_best_effort;
          Alcotest.test_case "oversized line" `Slow test_oversized_line;
          Alcotest.test_case "reap spares in-flight epoch" `Slow
            test_reap_spares_inflight_epoch;
          Alcotest.test_case "failed epoch keeps last config" `Slow
            test_failed_epoch_keeps_last_config;
          Alcotest.test_case "stmt-triggered epoch failure" `Slow
            test_stmt_triggered_epoch_failure;
          Alcotest.test_case "pipelined epoch failure replays" `Slow
            test_pipelined_epoch_failure;
          Alcotest.test_case "tenant dropped mid-epoch" `Slow
            test_tenant_dropped_mid_epoch;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "overflowing literal" `Slow test_overflowing_literal;
          Alcotest.test_case "out of descriptors" `Slow test_out_of_descriptors;
          Alcotest.test_case "strict verbs" `Slow test_strict_verbs;
          Alcotest.test_case "paced client no Nagle lock-step" `Slow
            test_paced_client_no_lockstep;
          Alcotest.test_case "pipelined replies coalesced" `Slow
            test_replies_coalesced;
        ] );
    ]

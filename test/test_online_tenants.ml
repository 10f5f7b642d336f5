(* Multi-tenant isolation tests for the `serve` daemon, against the
   real CLI binary on an ephemeral port.

   Two tenants with disjoint workloads must keep independent
   STATS/CONFIG/EPOCH state; TENANT DROP must evict the session and
   unbind its connections cleanly; and a slow reader must be closed by
   output backpressure at the configured byte cap, visibly in the
   metrics registry. *)

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

let start_daemon ?(args = []) ?(env = []) () =
  let out_read, out_write = Unix.pipe ~cloexec:false () in
  let argv =
    [
      cli (); "serve"; "-d"; "synthetic1"; "--port"; "0"; "--check-every";
      "1000000"; "--read-timeout"; "30";
    ]
    @ args
  in
  let pid =
    Unix.create_process_env (cli ()) (Array.of_list argv)
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
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
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

let expect what exact resp = Alcotest.(check string) what exact resp

(* Read the detail lines of an "OK <n>" multi-line reply already
   headed by [head]. *)
let read_body c head =
  let n = Scanf.sscanf head "OK %d" (fun n -> n) in
  List.init n (fun _ -> input_line c.ic)

let read_metrics c =
  let head = request c "METRICS" in
  expect_prefix "metrics" "OK " head;
  List.map
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.fail ("unparseable metric line: " ^ line)
      | Some i ->
        ( String.sub line 0 i,
          float_of_string
            (String.sub line (i + 1) (String.length line - i - 1)) ))
    (read_body c head)

let metric metrics name =
  match List.assoc_opt name metrics with
  | Some v -> v
  | None -> Alcotest.fail ("metric not exported: " ^ name)

let feed_stmts c ~table ~count =
  for i = 1 to count do
    expect_prefix
      (Printf.sprintf "stmt %d on %s" i table)
      "OK observed"
      (* Column 0 is Int in every synthetic table; the others draw
         random types, so equality-on-c0 keeps both workloads valid. *)
      (request c
         (Printf.sprintf "STMT SELECT %s_c0 FROM %s WHERE %s_c0 = %d" table
            table table i))
  done

(* ---- Tests ---- *)

let test_tenant_lifecycle_and_isolation () =
  let d = start_daemon () in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c1 = connect d.port in
      (* Bad inputs first. *)
      expect "invalid name"
        "ERR invalid tenant name (want [A-Za-z0-9_.-]{1,64})"
        (request c1 "TENANT CREATE bad/name");
      expect "duplicate of default" "ERR tenant synthetic1 exists"
        (request c1 "TENANT CREATE synthetic1");
      expect "use unknown" "ERR no such tenant nosuch"
        (request c1 "TENANT USE nosuch");
      expect "drop unknown" "ERR no such tenant nosuch"
        (request c1 "TENANT DROP nosuch");
      (* Create a second tenant over the same synthetic schema. *)
      expect "create b" "OK tenant b created"
        (request c1 "TENANT CREATE b synthetic1");
      let head = request c1 "TENANT LIST" in
      expect_prefix "list head" "OK 2" head;
      (match read_body c1 head with
       | [ b_row; s_row ] ->
         expect_prefix "list row b" "b conns=0 statements=0" b_row;
         expect_prefix "list row default" "synthetic1 conns=1" s_row
       | rows ->
         Alcotest.fail
           ("unexpected TENANT LIST body: " ^ String.concat " | " rows));
      (* A second connection binds to b; each side feeds a workload
         touching only its own table. *)
      let c2 = connect d.port in
      expect "use b" "OK tenant b" (request c2 "TENANT USE b");
      feed_stmts c1 ~table:"t0" ~count:10;
      feed_stmts c2 ~table:"t1" ~count:7;
      (* STATS are per-tenant. *)
      Alcotest.(check bool) "default tenant statement count" true
        (Astring_contains.contains (request c1 "STATS") "statements=10");
      Alcotest.(check bool) "tenant b statement count" true
        (Astring_contains.contains (request c2 "STATS") "statements=7");
      (* Epochs tune each tenant against its own window: tenant b's
         configuration indexes only t1, the default's only t0. *)
      expect_prefix "epoch on b" "OK epoch" (request c2 "EPOCH");
      expect_prefix "epoch on default" "OK epoch" (request c1 "EPOCH");
      let config c = read_body c (request c "CONFIG") in
      let cfg_default = config c1 and cfg_b = config c2 in
      Alcotest.(check bool) "default config nonempty" true
        (cfg_default <> []);
      Alcotest.(check bool) "b config nonempty" true (cfg_b <> []);
      List.iter
        (fun line ->
          expect_prefix "default config indexes t0 only" "t0(" line)
        cfg_default;
      List.iter
        (fun line -> expect_prefix "b config indexes t1 only" "t1(" line)
        cfg_b;
      (* Per-tenant series in the metrics registry. *)
      let m = read_metrics c1 in
      Alcotest.(check bool) "tenants gauge" true
        (metric m "server_tenants" = 2.);
      Alcotest.(check bool) "live conns labelled b" true
        (metric m "server_tenant_connections_live{tenant=\"b\"}" = 1.);
      Alcotest.(check bool) "live conns labelled default" true
        (metric m "server_tenant_connections_live{tenant=\"synthetic1\"}" = 1.);
      Alcotest.(check bool) "commands labelled b" true
        (metric m "server_tenant_commands_total{tenant=\"b\"}" >= 7.);
      Alcotest.(check bool) "epochs labelled b" true
        (metric m "server_tenant_epochs_total{tenant=\"b\"}" >= 1.);
      (* Drop b: its connection is unbound, not closed, and may rebind. *)
      expect "drop b" "OK tenant b dropped conns=1"
        (request c1 "TENANT DROP b");
      expect "unbound conn answers ERR" "ERR no tenant bound (TENANT USE <name>)"
        (request c2 "STATS");
      expect "rebind to default" "OK tenant synthetic1"
        (request c2 "TENANT USE synthetic1");
      Alcotest.(check bool) "rebound sees default tenant state" true
        (Astring_contains.contains (request c2 "STATS") "statements=10");
      expect_prefix "list after drop" "OK 1" (request c1 "TENANT LIST");
      ignore (read_body c1 "OK 1");
      let m2 = read_metrics c1 in
      Alcotest.(check bool) "tenants gauge after drop" true
        (metric m2 "server_tenants" = 1.);
      expect "quit c2" "OK bye" (request c2 "QUIT");
      expect "quit c1" "OK bye" (request c1 "QUIT"))

let test_tenant_weights () =
  (* --tenant NAME[=DB][:WEIGHT] pre-creates weighted tenants; the
     weight scales the session's per-round dispatch budget and must
     survive into TENANT LIST so operators can audit the fairness
     split. Unweighted tenants (flag or TENANT CREATE) stay at 1. *)
  let d =
    start_daemon
      ~args:[ "--tenant"; "heavy=synthetic1:4"; "--tenant"; "light=synthetic1" ]
      ()
  in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let c = connect d.port in
      let head = request c "TENANT LIST" in
      expect_prefix "list head" "OK 3" head;
      (match read_body c head with
       | [ heavy; light; dflt ] ->
         expect "heavy row carries its weight"
           "heavy conns=0 statements=0 epochs=0 weight=4" heavy;
         expect "light row defaults to weight 1"
           "light conns=0 statements=0 epochs=0 weight=1" light;
         expect "default tenant row"
           "synthetic1 conns=1 statements=0 epochs=0 weight=1" dflt
       | rows ->
         Alcotest.fail
           ("unexpected TENANT LIST body: " ^ String.concat " | " rows));
      (* Created-at-runtime tenants are unweighted. *)
      expect "create c" "OK tenant c created"
        (request c "TENANT CREATE c synthetic1");
      expect "use c" "OK tenant c" (request c "TENANT USE c");
      (* Weighted tenants serve statements like any other. *)
      let c2 = connect d.port in
      expect "use heavy" "OK tenant heavy" (request c2 "TENANT USE heavy");
      feed_stmts c2 ~table:"t0" ~count:3;
      Alcotest.(check bool) "heavy tenant accumulates its own window" true
        (Astring_contains.contains (request c2 "STATS") "statements=3");
      let head = request c2 "TENANT LIST" in
      expect_prefix "list head after create" "OK 4" head;
      (match read_body c2 head with
       | [ c_row; heavy; _light; _dflt ] ->
         expect "runtime tenant at weight 1"
           "c conns=1 statements=0 epochs=0 weight=1" c_row;
         expect "heavy row reflects its traffic"
           "heavy conns=1 statements=3 epochs=0 weight=4" heavy
       | rows ->
         Alcotest.fail
           ("unexpected TENANT LIST body: " ^ String.concat " | " rows));
      expect "quit c2" "OK bye" (request c2 "QUIT");
      expect "quit c" "OK bye" (request c "QUIT"))

let test_backpressure_close () =
  (* A reader that pipelines 400 STATS and never drains must be closed
     once its queued replies would exceed --max-output-bytes: it gets a
     prefix of the replies (what was queued before the trip, minus what
     the kernel buffers absorbed), then EOF. IM_SERVE_SNDBUF shrinks
     the daemon-side socket buffer so the queue, not the kernel, holds
     the backlog. *)
  let cap = 32768 in
  let n = 400 in
  let d =
    start_daemon
      ~args:[ "--max-output-bytes"; string_of_int cap ]
      ~env:[ "IM_SERVE_SNDBUF=4096" ] ()
  in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let slow = connect ~rcvbuf:4096 d.port in
      let b = Buffer.create (n * 8) in
      for _ = 1 to n do
        Buffer.add_string b "STATS\n"
      done;
      output_string slow.oc (Buffer.contents b);
      flush slow.oc;
      (* Only now start reading: the daemon has already tripped the cap
         and marked the connection closing. *)
      let received = ref 0 in
      (try
         while true do
           ignore (input_line slow.ic);
           incr received
         done
       with End_of_file -> ());
      Alcotest.(check bool)
        (Printf.sprintf "slow reader closed early (%d < %d replies)"
           !received n)
        true
        (!received < n);
      Alcotest.(check bool) "some replies delivered before the trip" true
        (!received >= 1);
      (* The trip is visible in the registry, and the queue high-water
         never exceeded the cap. *)
      let c2 = connect d.port in
      let m = read_metrics c2 in
      Alcotest.(check bool) "backpressure close counted" true
        (metric m "server_backpressure_closed_total" >= 1.);
      Alcotest.(check bool)
        (Printf.sprintf "out queue high-water %.0f <= cap %d"
           (metric m "server_out_queue_max_bytes")
           cap)
        true
        (metric m "server_out_queue_max_bytes" <= float_of_int cap);
      (* Daemon still healthy. *)
      expect_prefix "stats after backpressure" "OK "
        (request c2 "STATS");
      expect "quit" "OK bye" (request c2 "QUIT"))

let test_pipelined_fleet () =
  (* 100 clients spread over 2 tenants each pipeline TENANT USE plus 20
     commands (STMTs on their tenant's own table, a STATS every tenth)
     in one write, half-close, and only then read: every command must
     get exactly one OK reply before the daemon closes the connection,
     and the daemon must count no write error, backpressure close or
     rejected connection, with its output-queue high-water under the
     1 MiB default cap. *)
  let clients = 100 and depth = 20 in
  let tenants = [| "synthetic1"; "t2" |] in
  let d =
    start_daemon
      ~args:
        [
          "--tenant"; "t2=synthetic1"; "--max-connections";
          string_of_int (clients + 8);
        ]
      ()
  in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      let fleet =
        List.init clients (fun i ->
            let table = Printf.sprintf "t%d" (i mod 2) in
            let b = Buffer.create 1024 in
            Printf.bprintf b "TENANT USE %s\n" tenants.(i mod 2);
            for k = 1 to depth do
              if k mod 10 = 0 then Buffer.add_string b "STATS\n"
              else
                Printf.bprintf b "STMT SELECT %s_c0 FROM %s WHERE %s_c0 = %d\n"
                  table table table ((i * depth) + k)
            done;
            let c = connect d.port in
            output_string c.oc (Buffer.contents b);
            flush c.oc;
            Unix.shutdown c.fd Unix.SHUTDOWN_SEND;
            c)
      in
      List.iteri
        (fun i c ->
          let replies = ref [] in
          (try
             while true do
               replies := input_line c.ic :: !replies
             done
           with End_of_file -> ());
          Unix.close c.fd;
          Alcotest.(check int)
            (Printf.sprintf "client %d: one reply per command" i)
            (depth + 1) (List.length !replies);
          List.iter
            (fun r -> expect_prefix (Printf.sprintf "client %d reply" i) "OK" r)
            !replies)
        fleet;
      let c = connect d.port in
      let m = read_metrics c in
      List.iter
        (fun name ->
          Alcotest.(check (float 0.)) name 0. (metric m name))
        [
          "server_write_errors_total"; "server_backpressure_closed_total";
          "server_connections_rejected_total";
        ];
      Alcotest.(check bool)
        (Printf.sprintf "out queue high-water %.0f <= 1 MiB"
           (metric m "server_out_queue_max_bytes"))
        true
        (metric m "server_out_queue_max_bytes" <= 1_048_576.);
      (* Each tenant observed exactly its half of the fleet's STMTs. *)
      let head = request c "TENANT LIST" in
      let stmts = clients / 2 * (depth - (depth / 10)) in
      List.iter
        (fun row ->
          Alcotest.(check bool)
            (Printf.sprintf "%S counts %d statements" row stmts)
            true
            (Astring_contains.contains row
               (Printf.sprintf "statements=%d " stmts)))
        (read_body c head);
      expect "quit" "OK bye" (request c "QUIT"))

let () =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  Alcotest.run "im_online_tenants"
    [
      ( "tenants",
        [
          Alcotest.test_case "lifecycle and isolation" `Slow
            test_tenant_lifecycle_and_isolation;
          Alcotest.test_case "weights" `Slow test_tenant_weights;
          Alcotest.test_case "backpressure close" `Slow
            test_backpressure_close;
          Alcotest.test_case "pipelined fleet" `Slow test_pipelined_fleet;
        ] );
    ]

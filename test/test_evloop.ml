(* Tests for the readiness layer (lib/evloop), whose one backend is
   poll(2). The daemon-level test proving a slow epoch does not stall
   another tenant lives at the bottom and drives the real CLI binary. *)

module Evloop = Im_evloop.Evloop

let with_pipe f =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let ready_fds events =
  List.filter_map
    (fun e -> if e.Evloop.ev_read then Some e.Evloop.ev_fd else None)
    events

(* register / modify / deregister lifecycle. Registration shows through
   the documented errors: [modify] refuses an unregistered fd, [add] a
   registered one. *)
let test_lifecycle () =
  let t = Evloop.create () in
  with_pipe @@ fun r w ->
  (match Evloop.modify t r ~read:true ~write:false with
  | () -> Alcotest.fail "modify before add accepted"
  | exception Invalid_argument _ -> ());
  Evloop.add t r ~read:true ~write:false;
  (match Evloop.add t r ~read:true ~write:false with
  | () -> Alcotest.fail "double add accepted"
  | exception Invalid_argument _ -> ());
  (* Nothing ready yet: a zero-timeout wait returns no read events for
     the empty pipe. *)
  Alcotest.(check (list int))
    "idle pipe not readable" []
    (List.map Evloop.fd_int (ready_fds (Evloop.wait t ~timeout_s:0.)));
  let n = Unix.write_substring w "x" 0 1 in
  Alcotest.(check int) "wrote byte" 1 n;
  Alcotest.(check (list int))
    "readable after write"
    [ Evloop.fd_int r ]
    (List.map Evloop.fd_int (ready_fds (Evloop.wait t ~timeout_s:1.0)));
  (* Drop read interest: same kernel state, no events. *)
  Evloop.modify t r ~read:false ~write:false;
  Alcotest.(check (list int))
    "no events with empty interest" []
    (List.map Evloop.fd_int (ready_fds (Evloop.wait t ~timeout_s:0.)));
  Evloop.modify t r ~read:true ~write:false;
  Evloop.remove t r;
  Alcotest.(check (list int))
    "no events after remove" []
    (List.map Evloop.fd_int (ready_fds (Evloop.wait t ~timeout_s:0.)));
  (match Evloop.modify t r ~read:true ~write:false with
  | () -> Alcotest.fail "modify after remove accepted"
  | exception Invalid_argument _ -> ());
  (* Removing an unknown fd is a no-op (close paths may race). *)
  Evloop.remove t r

(* Level-triggered semantics: an fd stays readable across waits until
   drained, then stops reporting. *)
let test_level_triggered () =
  let t = Evloop.create () in
  with_pipe @@ fun r w ->
  Evloop.add t r ~read:true ~write:false;
  ignore (Unix.write_substring w "ab" 0 2);
  let readable () =
    List.exists (fun e -> e.Evloop.ev_fd = r && e.Evloop.ev_read)
      (Evloop.wait t ~timeout_s:1.0)
  in
  Alcotest.(check bool) "readable (1st wait)" true (readable ());
  Alcotest.(check bool) "still readable (2nd wait, undrained)" true
    (readable ());
  let buf = Bytes.create 1 in
  ignore (Unix.read r buf 0 1);
  Alcotest.(check bool) "still readable (partial drain)" true (readable ());
  ignore (Unix.read r buf 0 1);
  let quiet =
    List.exists (fun e -> e.Evloop.ev_fd = r && e.Evloop.ev_read)
      (Evloop.wait t ~timeout_s:0.)
  in
  Alcotest.(check bool) "quiet once drained" false quiet;
  Evloop.remove t r

(* Write readiness: a fresh pipe's write end is writable; HUP on the
   read end surfaces to the writer as ready (so a flush sees EPIPE). *)
let test_write_readiness () =
  let t = Evloop.create () in
  with_pipe @@ fun r w ->
  ignore r;
  Evloop.add t w ~read:false ~write:true;
  let writable =
    List.exists (fun e -> e.Evloop.ev_fd = w && e.Evloop.ev_write)
      (Evloop.wait t ~timeout_s:1.0)
  in
  Alcotest.(check bool) "fresh pipe writable" true writable;
  Evloop.remove t w

(* dup2 the pipe's read end above FD_SETSIZE: the loop must watch it. *)
let test_beyond_fd_setsize () =
  let limit = Evloop.raise_fd_limit 4096 in
  if limit < 2048 then
    Alcotest.skip ()
  else
    let t = Evloop.create () in
    with_pipe @@ fun r w ->
    let high = 2000 in
    let high_fd : Unix.file_descr = Obj.magic high in
    Unix.dup2 r high_fd;
    Fun.protect
      ~finally:(fun () ->
        try Unix.close high_fd with Unix.Unix_error _ -> ())
      (fun () ->
        Alcotest.(check int) "fd really is beyond FD_SETSIZE" high
          (Evloop.fd_int high_fd);
        Evloop.add t high_fd ~read:true ~write:false;
        ignore (Unix.write_substring w "x" 0 1);
        let seen =
          List.exists
            (fun e -> Evloop.fd_int e.Evloop.ev_fd = high && e.Evloop.ev_read)
            (Evloop.wait t ~timeout_s:1.0)
        in
        Alcotest.(check bool) "high fd reported readable" true seen;
        Evloop.remove t high_fd)

(* ---- Off-thread epoch isolation (daemon level) ---- *)

let cli () =
  let here = Filename.dirname Sys.executable_name in
  let path =
    Filename.concat (Filename.dirname here)
      (Filename.concat "bin" "index_merge_cli.exe")
  in
  if not (Sys.file_exists path) then
    Alcotest.fail ("CLI binary not found at " ^ path);
  path

let start_daemon ~args ~env =
  let out_read, out_write = Unix.pipe ~cloexec:false () in
  let argv =
    [ cli (); "serve"; "-d"; "synthetic1"; "--port"; "0" ] @ args
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
           (fun s -> String.length s > 10 && String.sub s 0 10 = "127.0.0.1:")
           (String.split_on_char ' ' banner))
        "127.0.0.1:%d" (fun p -> p)
    with _ -> Alcotest.fail ("no port in banner: " ^ banner)
  in
  (pid, port)

let connect port =
  Unix.open_connection
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port))

let request (ic, oc) line =
  output_string oc (line ^ "\n");
  flush oc;
  input_line ic

let expect_prefix what prefix resp =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S starts with %S" what resp prefix)
    true
    (String.length resp >= String.length prefix
    && String.sub resp 0 (String.length prefix) = prefix)

let stmt c table col k =
  expect_prefix "stmt" "OK observed"
    (request c
       (Printf.sprintf "STMT SELECT %s_%s FROM %s WHERE %s_%s = %d" table col
          table table col k))

(* The 99th percentile of [samples]: with 200 samples, the second
   largest. *)
let p99 samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  a.(min (n - 1) (int_of_float (0.99 *. float_of_int n)))

(* Tenant B forces an epoch artificially slowed to 750 ms; while it is
   in flight on the worker domain, tenant A's STMT round-trips must
   stay as fast as before it — the dispatch thread is not blocked by
   tuning. A times 200 sequential STMTs before B's epoch and 200
   during it; the during-epoch p99 may be at most twice the baseline
   p99, with a 25 ms floor that absorbs scheduler jitter on
   sub-millisecond baselines. Drift checks are off so no epoch of A's
   own lands in either sample. *)
let test_epoch_isolation () =
  let delay_s = 0.75 in
  let pid, port =
    start_daemon
      ~args:[ "--check-every"; "1000000000" ]
      ~env:[ "IM_EPOCH_DELAY_MS=750" ]
  in
  Fun.protect
    ~finally:(fun () ->
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (fun () ->
      let ca = connect port in
      let cb = connect port in
      expect_prefix "create tenant B" "OK tenant other created"
        (request cb "TENANT CREATE other synthetic1");
      expect_prefix "bind tenant B" "OK tenant other"
        (request cb "TENANT USE other");
      (* Seed both windows past the bootstrap epoch, which is itself
         delayed: pay it once per tenant before timing anything. *)
      for k = 1 to 30 do
        stmt ca "t0" "c0" k;
        stmt cb "t1" "c0" k
      done;
      let timed k =
        let t0 = Unix.gettimeofday () in
        stmt ca "t0" "c1" k;
        Unix.gettimeofday () -. t0
      in
      let baseline = List.init 200 timed in
      (* Kick off B's slow epoch without waiting for the reply. *)
      let _, ocb = cb in
      let t_epoch = Unix.gettimeofday () in
      output_string ocb "EPOCH\n";
      flush ocb;
      (* A's statements answer while B's epoch is in flight. *)
      let during = List.init 200 (fun k -> timed (1000 + k)) in
      let base_p99 = p99 baseline and during_p99 = p99 during in
      let ceiling = Float.max (2. *. base_p99) 0.025 in
      Alcotest.(check bool)
        (Printf.sprintf
           "A's STMT p99 %.3fms during B's epoch <= %.3fms (baseline p99 \
            %.3fms)"
           (during_p99 *. 1e3) (ceiling *. 1e3) (base_p99 *. 1e3))
        true
        (during_p99 <= ceiling);
      let worst = List.fold_left Float.max 0. during in
      Alcotest.(check bool)
        (Printf.sprintf
           "A's worst STMT round-trip %.3fs stays well under B's %.2fs epoch"
           worst delay_s)
        true
        (worst < delay_s /. 2.);
      (* CONFIG answers the last committed configuration mid-flight. *)
      let head = request ca "CONFIG" in
      expect_prefix "A config mid-flight" "OK" head;
      let ica, _ = ca in
      Scanf.sscanf head "OK %d" (fun n ->
          for _ = 1 to n do ignore (input_line ica) done);
      (* B's reply arrives once the epoch lands, delay included. *)
      let icb, _ = cb in
      expect_prefix "B's epoch reply" "OK epoch" (input_line icb);
      let b_elapsed = Unix.gettimeofday () -. t_epoch in
      Alcotest.(check bool)
        (Printf.sprintf "B's epoch took the injected delay (%.2fs)" b_elapsed)
        true (b_elapsed >= delay_s *. 0.9);
      expect_prefix "quit A" "OK bye" (request ca "QUIT");
      expect_prefix "quit B" "OK bye" (request cb "QUIT"))

let () =
  Alcotest.run "evloop"
    [
      ( "backends",
        [
          Alcotest.test_case "poll: lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "poll: level-triggered" `Quick
            test_level_triggered;
          Alcotest.test_case "poll: write readiness" `Quick
            test_write_readiness;
          Alcotest.test_case "poll: fd beyond FD_SETSIZE" `Quick
            test_beyond_fd_setsize;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "slow epoch does not stall other tenants" `Slow
            test_epoch_isolation;
        ] );
    ]

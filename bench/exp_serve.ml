(* EXP-SERVE — the multi-tenant daemon under concurrent pipelined load.

   Spawns the real CLI daemon (`serve -d synthetic1` plus --tenant
   sessions over synthetic1/synthetic2) and drives IM_SERVE_CLIENTS
   concurrent clients (default 2000 — past the FD_SETSIZE select
   ceiling) spread round-robin across IM_SERVE_TENANTS tenants
   (default 4, including the default tenant) from a single nonblocking
   event loop on Im_evloop (epoll on Linux, poll elsewhere — the
   client driver scales past FD_SETSIZE the same way the daemon does).
   Each client binds its tenant with TENANT USE, pipelines
   IM_SERVE_DEPTH commands (default 20: STMTs on the tenant's own
   table, a STATS every tenth), reads every reply back, and closes. A
   control pass then forces one EPOCH per tenant, lists tenants,
   scrapes METRICS, and shuts the daemon down.

   A second phase measures dispatch isolation: a fresh daemon with an
   env-injected epoch delay (IM_EPOCH_DELAY_MS) runs a slow forced
   epoch for one tenant while another tenant's client keeps issuing
   sequential STMTs; the bench hard-asserts that the bystander's
   client-observed STMT p99 stays within 2x of its no-epoch baseline.

   The soft RLIMIT_NOFILE is raised toward the client count before the
   daemon is spawned (the daemon inherits it); the run aborts with a
   `ulimit -n` hint if the limit cannot be raised far enough.

   Reported: client-observed p50/p99 per verb (reply-read time minus
   the time the command's bytes left the client), bytes in/out, the
   isolation-phase latencies, and the daemon's own metrics registry.
   Hard gates:

   - every client gets exactly one reply per command (zero reply loss)
     and zero ERR replies;
   - the daemon counted zero write errors, zero backpressure closes,
     zero rejected connections;
   - the output-queue high-water stayed under --max-output-bytes;
   - bystander STMT p99 during a slow epoch <= max(2x baseline, 25ms).

   JSON artifact to $IM_BENCH_OUT (default BENCH_serve.json). *)

module Evloop = Im_evloop.Evloop

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some v ->
    (match int_of_string_opt v with
     | Some n when n > 0 -> n
     | _ -> failwith (Printf.sprintf "%s must be a positive int, got %S" name v)
     )
  | None -> default

let n_clients () = getenv_int "IM_SERVE_CLIENTS" 2000
let n_tenants () = getenv_int "IM_SERVE_TENANTS" 4
let depth () = getenv_int "IM_SERVE_DEPTH" 20

let deadline_s = 300.

(* ---- Daemon under test ---- *)

let cli_path () =
  let here = Filename.dirname Sys.executable_name in
  let path =
    Filename.concat (Filename.dirname here)
      (Filename.concat "bin" "index_merge_cli.exe")
  in
  if not (Sys.file_exists path) then
    failwith
      (path ^ " not built — run `dune build` before `bench/main.exe serve`");
  path

(* Tenant names and the --tenant specs creating them. The default
   tenant is named after -d; extras alternate synthetic1/synthetic2. *)
let tenant_names n =
  "synthetic1"
  :: List.init (n - 1) (fun i -> Printf.sprintf "t%d" (i + 2))

let tenant_specs n =
  List.concat_map
    (fun i ->
      [
        "--tenant";
        Printf.sprintf "t%d=synthetic%d" (i + 2) (1 + (i mod 2));
      ])
    (List.init (n - 1) Fun.id)

type daemon = { pid : int; stdout : in_channel; port : int; backend : string }

let start_daemon ?(env = []) ~tenants ~max_connections () =
  let out_read, out_write = Unix.pipe ~cloexec:false () in
  let argv =
    [
      cli_path (); "serve"; "-d"; "synthetic1"; "--port"; "0";
      "--check-every"; "1000000000"; "--read-timeout"; "120";
      "--max-connections"; string_of_int max_connections;
    ]
    @ tenant_specs tenants
  in
  let pid =
    Unix.create_process_env (cli_path ()) (Array.of_list argv)
      (Array.append (Unix.environment ()) (Array.of_list env))
      Unix.stdin out_write Unix.stderr
  in
  Unix.close out_write;
  let stdout = Unix.in_channel_of_descr out_read in
  let banner = input_line stdout in
  let tenants_line = input_line stdout in
  Printf.printf "%s\n%s\n%!" banner tenants_line;
  let port =
    try
      Scanf.sscanf
        (List.find
           (fun s ->
             String.length s > 10 && String.sub s 0 10 = "127.0.0.1:")
           (String.split_on_char ' ' banner))
        "127.0.0.1:%d" (fun p -> p)
    with _ -> failwith ("no port in daemon banner: " ^ banner)
  in
  (* "... backend <name>)" at the tail of line 2. *)
  let backend =
    let words = String.split_on_char ' ' tenants_line in
    let rec after = function
      | "backend" :: b :: _ ->
        String.map (function ',' | ')' -> ' ' | c -> c) b |> String.trim
      | _ :: rest -> after rest
      | [] -> "unknown"
    in
    after words
  in
  { pid; stdout; port; backend }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let addr =
    Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port)
  in
  (* The daemon accepts in bursts between event-loop rounds; a burst
     of sequential connects can momentarily fill the listen backlog. *)
  let rec go attempt =
    try Unix.connect fd addr
    with Unix.Unix_error ((Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
      when attempt < 50 ->
      Unix.sleepf 0.02;
      go (attempt + 1)
  in
  go 0;
  fd

(* ---- Client fleet ---- *)

type client = {
  fd : Unix.file_descr;
  out : Bytes.t;  (** the whole pipeline, written as the socket allows *)
  mutable off : int;
  cmd_verbs : string array;
  cmd_ends : int array;  (** end offset of each command in [out] *)
  mutable stamped : int;  (** commands whose bytes have fully left *)
  send_times : float array;
  mutable received : int;
  inbuf : Buffer.t;
  mutable line_start : int;  (** scan resume point into [inbuf] *)
  mutable errors : string list;
  mutable closed : bool;
}

(* Client [i] of [n] binds tenant [i mod tenants] and touches only
   that tenant's table t[tenant_idx] — disjoint per-tenant workloads,
   checkable in TENANT LIST statement counts. *)
let make_client ~port ~tenants ~depth i =
  let tenant = List.nth tenants (i mod List.length tenants) in
  let table = Printf.sprintf "t%d" (i mod List.length tenants) in
  let b = Buffer.create 1024 in
  let verbs = ref [] and ends = ref [] in
  let push verb line =
    Buffer.add_string b line;
    Buffer.add_char b '\n';
    verbs := verb :: !verbs;
    ends := Buffer.length b :: !ends
  in
  push "tenant" (Printf.sprintf "TENANT USE %s" tenant);
  for k = 1 to depth do
    if k mod 10 = 0 then push "stats" "STATS"
    else
      push "stmt"
        (Printf.sprintf "STMT SELECT %s_c0 FROM %s WHERE %s_c0 = %d" table
           table table
           ((i * depth) + k))
  done;
  let fd = connect port in
  Unix.set_nonblock fd;
  let n_cmds = List.length !verbs in
  {
    fd;
    out = Buffer.to_bytes b;
    off = 0;
    cmd_verbs = Array.of_list (List.rev !verbs);
    cmd_ends = Array.of_list (List.rev !ends);
    stamped = 0;
    send_times = Array.make n_cmds 0.;
    received = 0;
    inbuf = Buffer.create 1024;
    line_start = 0;
    errors = [];
    closed = false;
  }

let latencies : (string, float list ref) Hashtbl.t = Hashtbl.create 8
let bytes_out = ref 0
let bytes_in = ref 0

let record verb dt =
  let cell =
    match Hashtbl.find_opt latencies verb with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace latencies verb r;
      r
  in
  cell := dt :: !cell

let pump_writes c =
  let len = Bytes.length c.out in
  (try
     while c.off < len do
       let n = Unix.write c.fd c.out c.off (len - c.off) in
       c.off <- c.off + n;
       bytes_out := !bytes_out + n
     done
   with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  let now = Unix.gettimeofday () in
  while
    c.stamped < Array.length c.cmd_ends && c.cmd_ends.(c.stamped) <= c.off
  do
    c.send_times.(c.stamped) <- now;
    c.stamped <- c.stamped + 1
  done

let scratch = Bytes.create 65536

let finish ev c =
  if not c.closed then begin
    c.closed <- true;
    Evloop.remove ev c.fd;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let consume_lines ev c =
  let total = Array.length c.cmd_verbs in
  let s = Buffer.contents c.inbuf in
  let now = Unix.gettimeofday () in
  let i = ref c.line_start in
  (try
     while !i < String.length s do
       let j = String.index_from s !i '\n' in
       let line = String.sub s !i (j - !i) in
       let k = c.received in
       if k >= total then
         c.errors <- Printf.sprintf "unexpected extra reply %S" line :: c.errors
       else begin
         (if String.length line < 2 || String.sub line 0 2 <> "OK" then
            c.errors <-
              Printf.sprintf "%s: %s" c.cmd_verbs.(k) line :: c.errors);
         record c.cmd_verbs.(k) (now -. c.send_times.(k));
         c.received <- k + 1
       end;
       i := j + 1
     done
   with Not_found -> ());
  c.line_start <- !i;
  if c.received >= total then finish ev c

let pump_reads ev c =
  let rec go () =
    match Unix.read c.fd scratch 0 (Bytes.length scratch) with
    | 0 ->
      if not c.closed then begin
        c.errors <-
          Printf.sprintf "EOF after %d/%d replies" c.received
            (Array.length c.cmd_verbs)
          :: c.errors;
        finish ev c
      end
    | n ->
      bytes_in := !bytes_in + n;
      Buffer.add_subbytes c.inbuf scratch 0 n;
      consume_lines ev c;
      if not c.closed then go ()
  in
  try go () with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    c.errors <- "connection reset" :: c.errors;
    finish ev c

(* The fleet runs on the same readiness layer as the daemon: Auto
   resolves to epoll on Linux and poll elsewhere, so 2000+ client fds
   in one loop work where Unix.select would fail outright. *)
let drive_fleet clients =
  let t0 = Unix.gettimeofday () in
  let ev = Evloop.create () in
  let by_fd = Hashtbl.create (List.length clients) in
  List.iter
    (fun c ->
      Hashtbl.replace by_fd c.fd c;
      Evloop.add ev c.fd ~read:true ~write:true)
    clients;
  Printf.printf "client event loop backend: %s\n%!" (Evloop.backend_name ev);
  let live = ref (List.length clients) in
  while !live > 0 do
    if Unix.gettimeofday () -. t0 > deadline_s then
      failwith
        (Printf.sprintf "fleet did not drain within %.0fs (%d live)"
           deadline_s !live);
    let events = Evloop.wait ev ~timeout_s:1.0 in
    List.iter
      (fun (e : Evloop.event) ->
        match Hashtbl.find_opt by_fd e.ev_fd with
        | None -> ()
        | Some c ->
          if (not c.closed) && e.ev_write then begin
            pump_writes c;
            if c.off >= Bytes.length c.out then
              Evloop.modify ev c.fd ~read:true ~write:false
          end;
          if (not c.closed) && e.ev_read then begin
            pump_reads ev c;
            if c.closed then decr live
          end)
      events
  done;
  Evloop.close ev;
  Unix.gettimeofday () -. t0

(* ---- Control pass: epochs, tenant listing, metrics, shutdown ---- *)

type ctl = { ic : in_channel; oc : out_channel }

let ctl_connect port =
  let fd = connect port in
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let ctl_request c line =
  output_string c.oc (line ^ "\n");
  flush c.oc;
  input_line c.ic

let ctl_expect c what prefix line =
  let r = ctl_request c line in
  if
    String.length r < String.length prefix
    || String.sub r 0 (String.length prefix) <> prefix
  then failwith (Printf.sprintf "%s: expected %S..., got %S" what prefix r);
  r

let ctl_body c head =
  Scanf.sscanf head "OK %d" (fun n -> List.init n (fun _ -> input_line c.ic))

let control_pass port tenants =
  let c = ctl_connect port in
  List.iter
    (fun t ->
      ignore (ctl_expect c ("use " ^ t) "OK tenant" ("TENANT USE " ^ t));
      let t1 = Unix.gettimeofday () in
      ignore (ctl_expect c ("epoch on " ^ t) "OK epoch" "EPOCH");
      record "epoch" (Unix.gettimeofday () -. t1))
    tenants;
  let listing = ctl_body c (ctl_expect c "tenant list" "OK " "TENANT LIST") in
  let metrics =
    List.map
      (fun line ->
        match String.rindex_opt line ' ' with
        | None -> failwith ("unparseable metric line: " ^ line)
        | Some i ->
          ( String.sub line 0 i,
            float_of_string
              (String.sub line (i + 1) (String.length line - i - 1)) ))
      (ctl_body c (ctl_expect c "metrics" "OK " "METRICS"))
  in
  ignore (ctl_expect c "shutdown" "OK shutting down" "SHUTDOWN");
  (listing, metrics)

(* ---- Phase 2: dispatch isolation under a slow epoch ---- *)

type isolation = {
  iso_delay_ms : int;
  iso_baseline_p99_ms : float;
  iso_during_p99_ms : float;
  iso_epoch_reply_s : float;
}

let sorted_p99 samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  match Array.length a with
  | 0 -> 0.
  | n -> a.(min (n - 1) (int_of_float (0.99 *. float_of_int n)))

(* Tenant B's forced epoch is slowed by IM_EPOCH_DELAY_MS while tenant
   A keeps issuing sequential STMTs. With epochs offloaded to a worker
   domain, A's round-trips must not see the delay. *)
let isolation_pass () =
  let delay_ms = getenv_int "IM_SERVE_EPOCH_DELAY_MS" 750 in
  let d =
    start_daemon
      ~env:[ Printf.sprintf "IM_EPOCH_DELAY_MS=%d" delay_ms ]
      ~tenants:2 ~max_connections:16 ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid))
    (fun () ->
      let ca = ctl_connect d.port in
      let cb = ctl_connect d.port in
      ignore (ctl_expect cb "bind B" "OK tenant" "TENANT USE t2");
      (* Seed both windows past the bootstrap epoch (which is itself
         delayed — pay that once per tenant up front). *)
      let seed c table =
        for k = 1 to 30 do
          ignore
            (ctl_expect c "seed" "OK"
               (Printf.sprintf "STMT SELECT %s_c0 FROM %s WHERE %s_c0 = %d"
                  table table table k))
        done
      in
      seed ca "t0";
      seed cb "t1";
      let timed_stmt c table k =
        let t0 = Unix.gettimeofday () in
        ignore
          (ctl_expect c "stmt" "OK"
             (Printf.sprintf "STMT SELECT %s_c1 FROM %s WHERE %s_c1 = %d"
                table table table k));
        Unix.gettimeofday () -. t0
      in
      let baseline = List.init 200 (fun k -> timed_stmt ca "t0" k) in
      (* Kick off B's slow epoch without reading the reply, then keep
         hammering A while it is in flight on the worker domain. *)
      let t_epoch = Unix.gettimeofday () in
      output_string cb.oc "EPOCH\n";
      flush cb.oc;
      let during = List.init 200 (fun k -> timed_stmt ca "t0" (1000 + k)) in
      let reply = input_line cb.ic in
      let epoch_s = Unix.gettimeofday () -. t_epoch in
      if String.length reply < 8 || String.sub reply 0 8 <> "OK epoch" then
        failwith ("B's forced epoch failed: " ^ reply);
      if epoch_s < float_of_int delay_ms /. 1000. *. 0.9 then
        failwith
          (Printf.sprintf
             "epoch replied in %.3fs — the %dms delay was not injected"
             epoch_s delay_ms);
      ignore (ctl_expect ca "shutdown" "OK shutting down" "SHUTDOWN");
      let p99_base = sorted_p99 baseline and p99_during = sorted_p99 during in
      (* The acceptance gate: a slow epoch on one tenant must not show
         up in another tenant's client-observed latency. The 25ms
         floor absorbs scheduler jitter on sub-ms baselines. *)
      let ceiling = Float.max (2. *. p99_base) 0.025 in
      if p99_during > ceiling then
        failwith
          (Printf.sprintf
             "isolation violated: bystander STMT p99 %.2fms during a %dms \
              epoch (baseline %.2fms, ceiling %.2fms)"
             (p99_during *. 1e3) delay_ms (p99_base *. 1e3) (ceiling *. 1e3));
      Printf.printf
        "isolation: bystander STMT p99 %.3fms during B's %dms epoch \
         (baseline %.3fms, epoch replied in %.3fs)\n%!"
        (p99_during *. 1e3) delay_ms (p99_base *. 1e3) epoch_s;
      (try
         while true do
           ignore (input_line d.stdout)
         done
       with End_of_file -> ());
      {
        iso_delay_ms = delay_ms;
        iso_baseline_p99_ms = p99_base *. 1e3;
        iso_during_p99_ms = p99_during *. 1e3;
        iso_epoch_reply_s = epoch_s;
      })

(* ---- Reporting ---- *)

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let metric metrics name =
  match List.assoc_opt name metrics with
  | Some v -> v
  | None -> failwith ("daemon did not export metric " ^ name)

let run () =
  Exp_common.section
    "EXP-SERVE multi-tenant daemon: concurrent pipelined clients";
  let clients_n = n_clients () and tenants_n = n_tenants () in
  let depth = depth () in
  let tenants = tenant_names tenants_n in
  (* Room for every workload client plus control/stdio slack, both here
     and in the daemon (which inherits our raised RLIMIT_NOFILE). *)
  let needed = clients_n + 64 in
  let fd_limit = Evloop.raise_fd_limit needed in
  if fd_limit < needed then
    failwith
      (Printf.sprintf
         "RLIMIT_NOFILE %d < %d needed for %d clients — raise the hard \
          limit (`ulimit -n`) or lower IM_SERVE_CLIENTS"
         fd_limit needed clients_n);
  let d =
    start_daemon ~tenants:tenants_n ~max_connections:(clients_n + 8) ()
  in
  let listing, daemon_metrics, elapsed_s =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid))
      (fun () ->
        Printf.printf "connecting %d clients across %d tenants (depth %d)\n%!"
          clients_n tenants_n depth;
        let clients =
          List.init clients_n (fun i ->
              make_client ~port:d.port ~tenants ~depth i)
        in
        let elapsed_s = drive_fleet clients in
        (* Gate: zero reply loss, zero error replies. *)
        let failures =
          List.concat_map
            (fun c -> List.map (fun e -> e) c.errors)
            clients
        in
        if failures <> [] then
          failwith
            (Printf.sprintf "%d client failures, first: %s"
               (List.length failures) (List.hd failures));
        let listing, daemon_metrics = control_pass d.port tenants in
        (listing, daemon_metrics, elapsed_s))
  in
  (* Drain the daemon's shutdown report so its exit is clean. *)
  (try
     while true do
       ignore (input_line d.stdout)
     done
   with End_of_file -> ());
  Printf.printf "drained %d clients in %.2fs (%.0f commands/s)\n"
    clients_n elapsed_s
    (float_of_int (clients_n * (depth + 1)) /. elapsed_s);
  print_endline "tenant listing at the end of the run:";
  List.iter (fun l -> Printf.printf "  %s\n" l) listing;
  (* Daemon-side gates. *)
  if metric daemon_metrics "server_write_errors_total" <> 0. then
    failwith "daemon counted write errors under clean clients";
  if metric daemon_metrics "server_backpressure_closed_total" <> 0. then
    failwith "daemon hit backpressure against draining clients";
  if metric daemon_metrics "server_connections_rejected_total" <> 0. then
    failwith "daemon rejected connections under the configured cap";
  let high_water = metric daemon_metrics "server_out_queue_max_bytes" in
  if high_water > 1_048_576. then
    failwith
      (Printf.sprintf "output queue high-water %.0f exceeds the 1MiB cap"
         high_water);
  let iso = isolation_pass () in
  let verb_rows, verb_json =
    List.split
      (List.map
         (fun (verb, cell) ->
           let a = Array.of_list !cell in
           Array.sort compare a;
           let p50 = percentile a 0.5 and p99 = percentile a 0.99 in
           ( [
               verb;
               string_of_int (Array.length a);
               Printf.sprintf "%.2f" (p50 *. 1e3);
               Printf.sprintf "%.2f" (p99 *. 1e3);
             ],
             Printf.sprintf
               "    {\"verb\": \"%s\", \"count\": %d, \"p50_ms\": %.3f, \
                \"p99_ms\": %.3f}"
               verb (Array.length a) (p50 *. 1e3) (p99 *. 1e3) ))
         (List.sort compare
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) latencies [])))
  in
  Exp_common.print_table
    ~title:
      "Client-observed latency per verb (pipelined; from last byte sent)"
    ~header:[ "verb"; "count"; "p50 ms"; "p99 ms" ]
    ~rows:verb_rows;
  Printf.printf "bytes out %d, bytes in %d (client side)\n" !bytes_out
    !bytes_in;
  let json_escape s =
    String.concat ""
      (List.map
         (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
         (List.init (String.length s) (String.get s)))
  in
  let out =
    match Sys.getenv_opt "IM_BENCH_OUT" with
    | Some p when p <> "" -> p
    | _ -> "BENCH_serve.json"
  in
  let oc = open_out out in
  output_string oc
    (Printf.sprintf
       "{\n  \"experiment\": \"serve\",\n  \"clients\": %d,\n\
       \  \"event_backend\": \"%s\",\n\
       \  \"tenants\": [%s],\n  \"depth\": %d,\n  \"elapsed_s\": %.3f,\n\
       \  \"commands_per_s\": %.1f,\n  \"bytes_out\": %d,\n\
       \  \"bytes_in\": %d,\n  \"verbs\": [\n%s\n  ],\n\
       \  \"isolation\": {\"epoch_delay_ms\": %d, \"stmt_p99_baseline_ms\": \
        %.3f, \"stmt_p99_during_epoch_ms\": %.3f, \"epoch_reply_s\": %.3f},\n\
       \  \"tenant_listing\": [%s],\n  \"daemon_metrics\": {\n%s\n  }\n}\n"
       clients_n (json_escape d.backend)
       (String.concat ", "
          (List.map (fun t -> Printf.sprintf "\"%s\"" t) tenants))
       depth elapsed_s
       (float_of_int (clients_n * (depth + 1)) /. elapsed_s)
       !bytes_out !bytes_in
       (String.concat ",\n" verb_json)
       iso.iso_delay_ms iso.iso_baseline_p99_ms iso.iso_during_p99_ms
       iso.iso_epoch_reply_s
       (String.concat ", "
          (List.map (fun l -> Printf.sprintf "\"%s\"" (json_escape l)) listing))
       (String.concat ",\n"
          (List.map
             (fun (name, v) ->
               Printf.sprintf "    \"%s\": %g" (json_escape name) v)
             daemon_metrics)));
  close_out oc;
  Printf.printf "wrote %s\n" out

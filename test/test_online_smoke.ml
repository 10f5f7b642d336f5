(* End-to-end smoke test for the `serve` daemon: spawn the real CLI
   binary on an ephemeral port, stream statements over TCP, exercise
   STATS / EPOCH / CONFIG / QUIT / SHUTDOWN, and insist on a clean
   exit; then check that the CLI rejects out-of-range values of its
   checked flags (--compress, --prune-support and the rest) on every
   subcommand, and flag values it cannot honour (an --updates table the
   schema lacks, --merge-pair exhaustive under --cost-model nocost),
   before printing anything. Runs as part of `dune runtest` (see test/dune, which declares
   the dependency on the binary). *)

let cli () =
  (* _build/default/test/<exe> -> _build/default/bin/index_merge_cli.exe *)
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

let start_daemon () =
  let out_read, out_write = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process (cli ())
      [|
        cli (); "serve"; "-d"; "synthetic1"; "--port"; "0"; "--check-every";
        "8"; "--read-timeout"; "10";
      |]
      Unix.stdin out_write Unix.stderr
  in
  Unix.close out_write;
  let stdout = Unix.in_channel_of_descr out_read in
  (* First line announces the bound port. *)
  let banner = input_line stdout in
  let port =
    match String.index_opt banner ':' with
    | None -> Alcotest.fail ("no port in banner: " ^ banner)
    | Some _ ->
      (try
         Scanf.sscanf
           (List.find
              (fun s ->
                String.length s > 10
                && String.sub s 0 10 = "127.0.0.1:")
              (String.split_on_char ' ' banner))
           "127.0.0.1:%d" (fun p -> p)
       with _ -> Alcotest.fail ("no port in banner: " ^ banner))
  in
  { pid; stdout; port }

type client = { ic : in_channel; oc : out_channel }

let connect port =
  let ic, oc =
    Unix.open_connection
      (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port))
  in
  { ic; oc }

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

let test_smoke () =
  let d = start_daemon () in
  let finally () = try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> () in
  Fun.protect ~finally (fun () ->
      let c = connect d.port in
      (* Stream 20 statements; every one must be acknowledged. *)
      for i = 1 to 20 do
        let col = Printf.sprintf "t0_c%d" (i mod 3) in
        let resp =
          request c
            (Printf.sprintf "STMT SELECT %s FROM t0 WHERE %s = %d" col col i)
        in
        expect_prefix (Printf.sprintf "stmt %d" i) "OK observed" resp
      done;
      (* STATS during intake. *)
      let stats = request c "STATS" in
      expect_prefix "stats" "OK " stats;
      Alcotest.(check bool) "stats counted 20 statements" true
        (Astring_contains.contains stats "statements=20");
      (* Force an epoch, then read the configuration back. *)
      let epoch = request c "EPOCH" in
      expect_prefix "epoch" "OK epoch" epoch;
      let config = request c "CONFIG" in
      expect_prefix "config" "OK" config;
      let n = Scanf.sscanf config "OK %d" (fun n -> n) in
      for _ = 1 to n do
        ignore (input_line c.ic)
      done;
      (* Unknown verbs and bad statements answer ERR but keep going. *)
      expect_prefix "unknown" "ERR" (request c "FROBNICATE");
      expect_prefix "bad stmt" "ERR" (request c "STMT SELECT nope FROM nope");
      (* Polite goodbye on this connection. *)
      expect_prefix "quit" "OK bye" (request c "QUIT");
      (* A second connection can still shut the daemon down. *)
      let c2 = connect d.port in
      expect_prefix "shutdown" "OK shutting down" (request c2 "SHUTDOWN");
      (* The daemon must exit cleanly and print its metrics table. *)
      let _, status = Unix.waitpid [] d.pid in
      (match status with
       | Unix.WEXITED 0 -> ()
       | Unix.WEXITED n -> Alcotest.fail (Printf.sprintf "exit %d" n)
       | Unix.WSIGNALED n -> Alcotest.fail (Printf.sprintf "signal %d" n)
       | Unix.WSTOPPED n -> Alcotest.fail (Printf.sprintf "stopped %d" n));
      let rest = In_channel.input_all d.stdout in
      Alcotest.(check bool) "metrics table printed" true
        (Astring_contains.contains rest "statements"))

(* ---- Flag validation ---- *)

(* Run the CLI with [args]; its exit code, stderr lines and stdout. A
   run that outlives 20 s (e.g. [serve] accepting a value it should
   reject) is killed and fails the test. *)
let run_cli args =
  let err_read, err_write = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let out_path = Filename.temp_file "im_smoke" ".out" in
  let out = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid =
    Unix.create_process (cli ()) (Array.of_list (cli () :: args)) devnull
      out err_write
  in
  Unix.close err_write;
  Unix.close devnull;
  Unix.close out;
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.fail ("still running after 20 s: " ^ String.concat " " args)
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      Alcotest.fail (Printf.sprintf "killed by signal %d" n)
  in
  let code = wait () in
  let ic = Unix.in_channel_of_descr err_read in
  let lines = String.split_on_char '\n' (String.trim (In_channel.input_all ic)) in
  close_in ic;
  let stdout = In_channel.with_open_bin out_path In_channel.input_all in
  Sys.remove out_path;
  (code, lines, stdout)

(* [args] must be refused up front: exit 2, nothing on stdout, and one
   stderr line naming [flag]. *)
let check_rejected ~flag args =
  let label = String.concat " " args in
  let code, lines, stdout = run_cli args in
  Alcotest.(check int) (label ^ ": exit 2") 2 code;
  Alcotest.(check string) (label ^ ": no stdout") "" stdout;
  match lines with
  | [ line ] ->
    Alcotest.(check bool)
      (label ^ ": names the flag") true
      (Astring_contains.contains line flag)
  | _ ->
    Alcotest.fail
      (Printf.sprintf "%s: %d stderr lines, expected 1" label
         (List.length lines))

let test_bad_fractions_rejected () =
  (* --compress EPS must be finite and >= 0, --prune-support S in
     [0, 1], -q/--queries N an integer >= 1, -b/--budget PAGES an
     integer >= 0, --sf finite and > 0, -c/--constraint finite and
     >= 0 and -n/--initial an integer >= 0; serve's --window and
     --check-every are integers >= 1, --decay is in (0, 1], both drift
     thresholds are finite and >= 0, --max-connections and --max-output-bytes are integers
     >= 1, --max-tenant-connections an integer >= 0, --read-timeout
     finite and > 0 and a --tenant weight an integer in [1, 1000000]
     (128 x 2^55 wraps the round budget to 0): every bad value, on
     every subcommand taking the flag, is one stderr line and exit 2 —
     never a run on a nan budget or bound, a degenerate database,
     an empty workload, a silent clamp, a daemon that dies at its first
     drift check, a window whose masses turn NaN, a daemon that refuses
     every client, one that never (or always) reaps idle connections,
     or one that never serves a tenant while it spins. Each --updates
     entry must be table:rows with a table of the schema and rows an
     integer >= 1, rather than a crash after the initial configuration
     is printed. *)
  let compress = ("--compress", [ "nan"; "-3"; "inf"; "x" ]) in
  let prune = ("--prune-support", [ "7"; "nan"; "-0.1"; "1.5" ]) in
  let queries = ("--queries", [ "-3"; "0"; "x"; "1.5" ]) in
  let budget = ("--budget", [ "-5"; "-4"; "x"; "1.5" ]) in
  let window = ("--window", [ "0"; "-2"; "x" ]) in
  let decay = ("--decay", [ "0"; "1.5"; "nan"; "-0.5" ]) in
  let check_every = ("--check-every", [ "0"; "-1"; "1.5" ]) in
  let drift = ("--drift-threshold", [ "nan"; "-0.1"; "inf" ]) in
  let cost = ("--cost-threshold", [ "nan"; "-1"; "x" ]) in
  let max_conns = ("--max-connections", [ "0"; "-1"; "x" ]) in
  let read_timeout = ("--read-timeout", [ "nan"; "-1"; "0"; "inf" ]) in
  let max_output = ("--max-output-bytes", [ "0"; "-5"; "1.5" ]) in
  let max_tenant = ("--max-tenant-connections", [ "-1"; "x" ]) in
  let weight =
    ("--tenant", [ "x:0"; "x=synthetic1:1000001"; "x:36028797018963968" ])
  in
  let sf = ("--sf", [ "nan"; "-2"; "0"; "inf"; "x" ]) in
  let constraint_ = ("--constraint", [ "nan"; "-0.1"; "inf"; "x" ]) in
  let initial = ("--initial", [ "-3"; "1.5"; "x" ]) in
  let updates = ("--updates", [ "nosuch:10"; "t0:0"; "t0"; "t0:x" ]) in
  (* Each subcommand with the flags it validates; a well-formed
     -q/-b is passed too, unless that is the flag under test. *)
  let commands =
    [
      ( "merge",
        [ ("--queries", "6") ],
        [ compress; prune; queries; sf; constraint_; initial; updates ] );
      ( "advise",
        [ ("--queries", "6"); ("--budget", "100") ],
        [ compress; prune; queries; budget; sf ] );
      ("tune", [ ("--queries", "6") ], [ compress; prune; queries; sf ]);
      ("explain", [], [ queries; sf; initial ]);
      ("generate", [], [ queries; sf ]);
      ("info", [], [ sf ]);
      ("export", [], [ sf ]);
      ( "serve",
        [ ("--port", "0") ],
        [
          prune; budget; window; decay; check_every; drift; cost;
          max_conns; read_timeout; max_output; max_tenant; weight; sf;
        ] );
    ]
  in
  List.iter
    (fun (sub, fixed, flags) ->
      List.iter
        (fun (flag, values) ->
          List.iter
            (fun v ->
              check_rejected ~flag
                ([ sub; "-d"; "synthetic1" ]
                @ List.concat_map
                    (fun (f, x) -> if f = flag then [] else [ f ^ "=" ^ x ])
                    fixed
                @ [ flag ^ "=" ^ v ]))
            values)
        flags)
    commands;
  (* MergePair-Exhaustive ranks column orders by workload cost, which
     the No-Cost model does not have. *)
  check_rejected ~flag:"--merge-pair"
    [
      "merge"; "-d"; "synthetic1"; "-q"; "5"; "--merge-pair"; "exhaustive";
      "--cost-model"; "nocost";
    ]

let () =
  Alcotest.run "im_online_smoke"
    [
      ("daemon", [ Alcotest.test_case "serve smoke" `Slow test_smoke ]);
      ( "flags",
        [
          Alcotest.test_case "bad --compress/--prune-support rejected" `Quick
            test_bad_fractions_rejected;
        ] );
    ]

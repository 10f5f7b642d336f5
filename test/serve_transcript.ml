(* Deterministic transcript driver for the serve daemon: spawn the CLI
   named on the command line as a daemon, run a fixed script of
   commands and print every reply line to stdout. Nothing
   timing-dependent (STATS, METRICS) is asked for. test/golden diffs
   the output against serve_transcript.expected.

   Two legs:
   - sequential: one command per round trip — statements crossing the
     bootstrap epoch, a forced EPOCH, CONFIG, TENANT LIST;
   - pipelined: on a fresh tenant, one write carrying 40 statements
     (crossing the warmup-24 bootstrap), EPOCH, 29 more statements and
     CONFIG, whose replies are read back in order.

   Usage: serve_transcript <path to index_merge_cli.exe>          *)

let stmt i =
  let col = Printf.sprintf "t0_c%d" (i mod 3) in
  Printf.sprintf "STMT SELECT %s FROM t0 WHERE %s = %d" col col i

let () =
  if Array.length Sys.argv <> 2 then begin
    prerr_endline "usage: serve_transcript <index_merge_cli.exe>";
    exit 2
  end;
  let cli = Sys.argv.(1) in
  let out_read, out_write = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "-d"; "synthetic1"; "--port"; "0" |]
      Unix.stdin out_write Unix.stderr
  in
  Unix.close out_write;
  let daemon_out = Unix.in_channel_of_descr out_read in
  let banner = input_line daemon_out in
  let port =
    try
      Scanf.sscanf
        (List.find
           (fun s -> String.length s > 10 && String.sub s 0 10 = "127.0.0.1:")
           (String.split_on_char ' ' banner))
        "127.0.0.1:%d" (fun p -> p)
    with _ ->
      prerr_endline ("no port in banner: " ^ banner);
      exit 2
  in
  let connect () =
    Unix.open_connection
      (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port))
  in
  let send oc lines =
    output_string oc (String.concat "" (List.map (fun l -> l ^ "\n") lines));
    flush oc
  in
  (* One reply; "OK <n>" heads of multi-line verbs are followed by n
     detail lines. *)
  let read_reply ic ~multi =
    let head = input_line ic in
    print_endline head;
    match Scanf.sscanf_opt head "OK %d%!" Fun.id with
    | Some n when multi ->
      for _ = 1 to n do
        print_endline (input_line ic)
      done
    | Some _ | None -> ()
  in
  let request (ic, oc) ?(multi = false) line =
    send oc [ line ];
    read_reply ic ~multi
  in
  print_endline "== sequential ==";
  (* 40 statements: crosses the warmup-24 bootstrap epoch and the
     check-every-32 drift check, so the transcript exercises observed /
     drift / epoch replies. *)
  let c = connect () in
  for i = 1 to 40 do
    request c (stmt i)
  done;
  request c "EPOCH";
  request c ~multi:true "CONFIG";
  request c ~multi:true "TENANT LIST";
  request c "QUIT";
  print_endline "== pipelined ==";
  let ((ic, oc) as p) = connect () in
  request p "TENANT CREATE piped synthetic1";
  request p "TENANT USE piped";
  let script =
    List.init 40 (fun i -> stmt (i + 1))
    @ [ "EPOCH" ]
    @ List.init 29 (fun i -> stmt (i + 41))
    @ [ "CONFIG" ]
  in
  send oc script;
  List.iter (fun line -> read_reply ic ~multi:(line = "CONFIG")) script;
  request p ~multi:true "TENANT LIST";
  request p "QUIT";
  (* A last connection shuts the daemon down for a clean exit. *)
  request (connect ()) "SHUTDOWN";
  let _, status = Unix.waitpid [] pid in
  match status with
  | Unix.WEXITED 0 -> ()
  | _ ->
    prerr_endline "daemon did not exit cleanly";
    exit 1

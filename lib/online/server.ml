module Database = Im_catalog.Database
module Index = Im_catalog.Index
module Metrics = Im_obs.Metrics
module Evloop = Im_evloop.Evloop

let m_commands = Metrics.counter "server_commands_total"
let m_live = Metrics.gauge "server_connections_live"
let m_tenants = Metrics.gauge "server_tenants"
let m_bytes_in = Metrics.counter "server_bytes_in_total"
let m_bytes_out = Metrics.counter "server_bytes_out_total"
let m_reaped = Metrics.counter "server_connections_reaped_total"
let m_rejected = Metrics.counter "server_connections_rejected_total"
let m_write_errors = Metrics.counter "server_write_errors_total"
let m_backpressure = Metrics.counter "server_backpressure_closed_total"
let m_overlong = Metrics.counter "server_overlong_lines_total"

(* write(2) calls that moved reply bytes; bytes_out / writes is the
   mean write size. *)
let m_writes = Metrics.counter "server_writes_total"

(* High-water mark of any connection's queued output, and the largest
   number of connections accepted in a single loop round (1 forever
   means the accept loop is serializing bursts again). *)
let m_out_high_water = Metrics.gauge "server_out_queue_max_bytes"
let m_accept_burst = Metrics.gauge "server_accept_burst_max"

(* Off-thread epochs: how many re-merges went to the worker domain, and
   the cumulative seconds the dispatch thread has spent committing
   their results. Fairness: rounds where a tenant's deficit budget ran
   out with work still queued. *)
let m_epoch_offloaded = Metrics.counter "server_epoch_offloaded_total"
let m_dispatch_stall = Metrics.gauge "server_dispatch_stall_seconds"
let m_fairness_deferred = Metrics.counter "server_fairness_deferred_total"

(* Per-verb latency histograms, keyed by the upper-case verb; unknown
   verbs share one "other" series so a hostile client cannot grow the
   label set. *)
let m_command_seconds =
  List.map
    (fun verb ->
      ( String.uppercase_ascii verb,
        Metrics.histogram ~labels:[ ("verb", verb) ] "server_command_seconds"
      ))
    [ "stmt"; "stats"; "config"; "epoch"; "metrics"; "tenant"; "quit";
      "shutdown"; "other" ]

let m_stmt_seconds = List.assoc "STMT" m_command_seconds
let m_epoch_seconds = List.assoc "EPOCH" m_command_seconds
let m_other_seconds = List.assoc "OTHER" m_command_seconds

(* A request line, its verb split off once when the line arrives. A
   well-formed STMT or EPOCH gets its own case; every other line,
   malformed STMT and EPOCH included, keeps its upper-case verb, its
   trimmed argument text and the histogram that times it. *)
type command =
  | Stmt of string  (* the SQL text, parsed by [Service.intake] *)
  | Epoch
  | Other of { verb : string; rest : string; histogram : Metrics.Histogram.t }

let parse_command line =
  let verb, rest =
    match String.index_opt line ' ' with
    | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
    | None -> (line, "")
  in
  match String.uppercase_ascii verb with
  | "STMT" when rest <> "" -> Stmt rest
  | "EPOCH" when rest = "" -> Epoch
  | verb ->
    let histogram =
      Option.value ~default:m_other_seconds
        (List.assoc_opt verb m_command_seconds)
    in
    Other { verb; rest; histogram }

(* ---- Tenants ---- *)

(* One tenant session: a [Service.t] (own window, drift detector,
   costsvc/derive cache, epoch history) plus per-tenant instruments.
   Tenant names bound metric labels, so they are restricted to a safe
   charset. [s_weight] scales the tenant's per-round dispatch budget
   (deficit round-robin over sessions). *)
type session = {
  s_name : string;
  s_service : Service.t;
  s_weight : int;
  mutable s_conns : int;  (* connections currently bound here *)
  s_live : Metrics.Gauge.t;  (* server_tenant_connections_live{tenant} *)
  s_commands : Metrics.Counter.t;  (* server_tenant_commands_total{tenant} *)
  s_epochs : Metrics.Counter.t;  (* server_tenant_epochs_total{tenant} *)
}

let valid_tenant_name name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
         | _ -> false)
       name

let make_session ?(weight = 1) name service =
  {
    s_name = name;
    s_service = service;
    s_weight = max 1 weight;
    s_conns = 0;
    s_live =
      Metrics.gauge ~labels:[ ("tenant", name) ]
        "server_tenant_connections_live";
    s_commands =
      Metrics.counter ~labels:[ ("tenant", name) ]
        "server_tenant_commands_total";
    s_epochs =
      Metrics.counter ~labels:[ ("tenant", name) ] "server_tenant_epochs_total";
  }

(* ---- Connections ---- *)

(* Output is one contiguous byte buffer: replies are appended in place
   and [flush_out] hands every queued byte to a single write(2), so a
   turn's replies leave together, not one segment per reply. Bytes
   [ob_sent, ob_end) are unsent. A partial write only advances
   [ob_sent]; the live tail slides down only when room is needed and
   the sent prefix is at least half the buffer, so a slow reader costs
   amortized O(bytes), never O(bytes^2). *)
type outbuf = {
  mutable ob : Bytes.t;
  mutable ob_sent : int;
  mutable ob_end : int;
}

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;  (* incomplete trailing line *)
  pending : command Queue.t;  (* complete lines awaiting dispatch *)
  out : outbuf;
  mutable session : session option;  (* None after TENANT DROP *)
  mutable last_active : float;  (* monotonic seconds, Stopwatch.now_s *)
  mutable closing : bool;  (* discard input; close once output drains *)
  mutable eof : bool;  (* peer half-closed; drain pending + output *)
  mutable closed : bool;  (* fd is gone; every path rechecks this *)
  mutable awaiting_epoch : bool;
      (* this connection's next reply is an epoch running off-thread;
         dispatch is paused until the completion is delivered *)
}

type t = {
  listener : Unix.file_descr;
  bound_port : int;
  read_timeout : float;
  max_connections : int;
  max_tenant_connections : int;
  max_output_bytes : int;
  factory : string -> (Service.t, string) result;
  sessions : (string, session) Hashtbl.t;
  default_tenant : string;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  rbuf : Bytes.t;  (* every connection's reads land here first *)
  ev : Evloop.t;
  wake_r : Unix.file_descr;  (* worker completions poke this pipe *)
  wake_w : Unix.file_descr;
  worker : (session * conn * [ `Stmt | `Forced ]) Epoch_worker.t;
      (* each job's tag: the tenant it commits to, the connection its
         reply goes to (dropped if closed), and what asked for it *)
  mutable rr_cursor : int;  (* rotates tenant service order per round *)
  mutable last_reap : float;
  mutable running : bool;
  mutable accepting : bool;
      (* the listener's read interest; dropped while accept(2) answers
         EMFILE/ENFILE, so the level-triggered loop does not spin on a
         backlog it cannot take *)
  mutable connections_served : int;
  mutable commands_served : int;
  mutable out_high_water : int;
}

(* Base dispatch budget per session per loop round (scaled by the
   session's weight, shared across its connections). Bounds how long
   one tenant can monopolize the loop before accepts and other tenants
   get a turn; rounds with leftover pending work re-poll with a zero
   timeout. *)
let commands_per_round = 128

(* The largest tenant weight. A round budget of [commands_per_round]
   times a weight near [max_int] wraps to zero or below, and that
   tenant is never served while the loop spins. *)
let max_weight = 1_000_000

(* When a session has several connections with work, each takes at
   most this many commands per pass so the budget round-robins among
   them instead of draining the first connection whole. *)
let commands_per_turn = 32

(* Input backpressure: a connection with this many parsed-but-undispatched
   lines stops being read until the dispatcher catches up. *)
let max_pending_lines = 1024

(* A single line longer than this is abuse, not SQL. *)
let max_line_bytes = 1_000_000

(* The most one read takes from a connection per loop round. This also
   bounds the commands one round takes in, and so the replies that
   leave together in one write: a deeply pipelining client gets its
   first replies back while its later commands are still being
   dispatched. With 64 KiB reads, perfbench serve's 64-deep closed
   loop got each batch's replies in a single write and saturated 16 %
   lower (144k against 171k statements/s on 2 cores). *)
let read_bytes = 4096

(* Descriptors the daemon needs besides its connections: stdio, the
   listener, the wake pipe, and the transient fd of a rejected
   connect. [serve] raises the soft RLIMIT_NOFILE toward
   [max_connections] plus this. *)
let fd_headroom = 64

let no_factory _ = Error "tenant creation is not configured"

let create ?(host = "127.0.0.1") ?(port = 0) ?(read_timeout = 30.)
    ?(max_connections = 64) ?max_tenant_connections
    ?(max_output_bytes = 1_048_576) ?(tenant = "default") ?(tenants = [])
    ?(weights = []) ?(factory = no_factory) service =
  if max_connections < 1 then invalid_arg "Server.create: max_connections < 1";
  if not (Float.is_finite read_timeout && read_timeout > 0.) then
    invalid_arg "Server.create: read_timeout must be finite and > 0";
  if max_output_bytes < 1 then
    invalid_arg "Server.create: max_output_bytes < 1";
  if not (valid_tenant_name tenant) then
    invalid_arg ("Server.create: invalid tenant name " ^ tenant);
  List.iter
    (fun (name, _) ->
      if not (valid_tenant_name name) then
        invalid_arg ("Server.create: invalid tenant name " ^ name);
      if name = tenant then
        invalid_arg ("Server.create: duplicate tenant " ^ name))
    tenants;
  List.iter
    (fun (name, w) ->
      if w > max_weight then
        invalid_arg
          (Printf.sprintf "Server.create: weight %d of tenant %s is above %d" w
             name max_weight))
    weights;
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  (* Accepted sockets inherit the listener's buffer sizes; shrinking
     the send buffer (tests, or ops pinning memory per connection)
     makes slow readers surface as queued output instead of hiding in
     kernel buffers. *)
  (match Sys.getenv_opt "IM_SERVE_SNDBUF" with
   | Some s ->
     (match int_of_string_opt s with
      | Some n when n > 0 -> Unix.setsockopt_int listener Unix.SO_SNDBUF n
      | Some _ | None -> ())
   | None -> ());
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen listener 2048;
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let weight_of name =
    match List.assoc_opt name weights with Some w -> w | None -> 1
  in
  let sessions = Hashtbl.create 8 in
  Hashtbl.replace sessions tenant
    (make_session ~weight:(weight_of tenant) tenant service);
  List.iter
    (fun (name, svc) ->
      if Hashtbl.mem sessions name then
        invalid_arg ("Server.create: duplicate tenant " ^ name);
      Hashtbl.replace sessions name
        (make_session ~weight:(weight_of name) name svc))
    tenants;
  Metrics.Gauge.set_int m_tenants (Hashtbl.length sessions);
  let ev = Evloop.create () in
  Evloop.add ev listener ~read:true ~write:false;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  Evloop.add ev wake_r ~read:true ~write:false;
  let worker =
    Epoch_worker.create ~wakeup:(fun () ->
        (* A full pipe already guarantees a pending wake-up. *)
        try ignore (Unix.write_substring wake_w "!" 0 1)
        with Unix.Unix_error _ -> ())
  in
  {
    listener;
    bound_port;
    read_timeout;
    max_connections;
    max_tenant_connections =
      (match max_tenant_connections with
       | Some n when n > 0 -> n
       | Some _ | None -> max_connections);
    max_output_bytes;
    factory;
    sessions;
    default_tenant = tenant;
    conns = Hashtbl.create 64;
    rbuf = Bytes.create read_bytes;
    ev;
    wake_r;
    wake_w;
    worker;
    rr_cursor = 0;
    last_reap = Im_util.Stopwatch.now_s ();
    running = false;
    accepting = true;
    connections_served = 0;
    commands_served = 0;
    out_high_water = 0;
  }

let port t = t.bound_port
let shutdown t = t.running <- false
let connections_served t = t.connections_served
let commands_served t = t.commands_served
let tenants t = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.sessions [])

(* ---- Protocol rendering ---- *)

let stats_line service =
  Service.stats service
  |> List.map (fun (k, v) ->
         let k =
           String.map (fun c -> if c = ' ' then '_' else c)
             (match String.index_opt k '(' with
              | Some i -> String.trim (String.sub k 0 i)
              | None -> k)
         in
         let v = String.map (fun c -> if c = ' ' then '_' else c) v in
         k ^ "=" ^ v)
  |> String.concat " "

let epoch_line (o : Epoch.outcome) =
  Printf.sprintf
    "epoch trigger=%s diff=%s pages=%d->%d cost=%.1f->%.1f benefit=%.3f \
     clusters=%d/%d opt_calls=%d"
    (Epoch.trigger_to_string o.Epoch.e_trigger)
    (Epoch.diff_to_string o.Epoch.e_diff)
    o.Epoch.e_old_pages o.Epoch.e_new_pages o.Epoch.e_old_cost
    o.Epoch.e_new_cost o.Epoch.e_benefit o.Epoch.e_clusters_tuned
    o.Epoch.e_budget_clusters o.Epoch.e_opt_calls

(* The reply to one observed-statement event that fired no epoch (a
   triggering statement is answered when its epoch lands, see
   [handle_completion]). *)
let stmt_reply = function
  | Service.Rejected msg -> "ERR " ^ msg
  | Service.Observed { ev_drift = Some v; _ } ->
    Printf.sprintf "OK observed drift=%.3f regression=%.3f fired=%b"
      v.Drift.v_divergence v.Drift.v_regression v.Drift.v_fired
  | Service.Observed _ -> "OK observed"

(* ---- Connection lifecycle ---- *)

let set_accepting t on =
  if t.accepting <> on then begin
    t.accepting <- on;
    Evloop.modify t.ev t.listener ~read:on ~write:false
  end

let close_conn t conn =
  if not conn.closed then begin
    conn.closed <- true;
    Evloop.remove t.ev conn.fd;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove t.conns conn.fd;
    (match conn.session with
     | Some s ->
       s.s_conns <- s.s_conns - 1;
       Metrics.Gauge.set_int s.s_live s.s_conns
     | None -> ());
    conn.session <- None;
    Metrics.Gauge.set_int m_live (Hashtbl.length t.conns);
    (* A descriptor came free: accept again if we ran out. *)
    set_accepting t true
  end

(* ---- Output buffer ---- *)

(* Bytes queued on this connection and not yet written. *)
let queued conn = conn.out.ob_end - conn.out.ob_sent

(* A drained buffer larger than this is dropped rather than kept, so
   one large CONFIG or METRICS reply does not pin its memory for the
   life of the connection. *)
let out_keep_bytes = 65_536

let out_drained o =
  o.ob_sent <- 0;
  o.ob_end <- 0;
  if Bytes.length o.ob > out_keep_bytes then o.ob <- Bytes.empty

(* Make room for [n] more bytes at [ob_end]: slide the live bytes down
   when the sent prefix is at least half the buffer (the copy is no
   longer than what was sent since the last slide), else grow
   geometrically. *)
let out_reserve o n =
  let size = Bytes.length o.ob in
  if o.ob_end + n > size then begin
    let live = o.ob_end - o.ob_sent in
    let dst =
      if 2 * o.ob_sent >= size && live + n <= size then o.ob
      else Bytes.create (max (2 * size) (max 1024 (live + n)))
    in
    Bytes.blit o.ob o.ob_sent dst 0 live;
    o.ob <- dst;
    o.ob_sent <- 0;
    o.ob_end <- live
  end

(* Hand everything queued to one write(2), and write again only after
   a partial one, until the socket takes no more (a single write moves
   at most 64 KiB). A peer that disconnected mid-reply surfaces here
   as EPIPE/ECONNRESET (EBADF or ENOTCONN if the fd was already torn
   down): that peer's failure must not unwind the serve loop — count
   it and drop only this connection. *)
let flush_out t conn =
  let o = conn.out in
  let continue = ref (not conn.closed) in
  while !continue && o.ob_end > o.ob_sent do
    match Unix.single_write conn.fd o.ob o.ob_sent (o.ob_end - o.ob_sent) with
    | n ->
      Metrics.Counter.add m_bytes_out n;
      Metrics.Counter.incr m_writes;
      o.ob_sent <- o.ob_sent + n;
      if o.ob_sent = o.ob_end then out_drained o
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false  (* kernel buffer full: wait for writable *)
    | exception
        Unix.Unix_error
          ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN), _, _)
      ->
      Metrics.Counter.incr m_write_errors;
      out_drained o;
      close_conn t conn;
      continue := false
  done

(* Replies this connection has not received yet: queued output,
   commands still to dispatch, or an epoch running off-thread on its
   behalf. *)
let owes_replies conn =
  queued conn > 0
  || (not (Queue.is_empty conn.pending))
  || conn.awaiting_epoch

(* A closing connection goes once its output drains; a half-closed one
   additionally waits for its already-received commands to be answered
   (the half-close reply-loss fix: the peer's FIN promises no more
   input, not disinterest in the replies it pipelined). A connection
   awaiting an off-thread epoch keeps living until the reply it is
   owed has been queued. *)
let maybe_close_drained t conn =
  if (not conn.closed) && (conn.closing || conn.eof) && not (owes_replies conn)
  then close_conn t conn

(* Queue one reply line. Exceeding the output cap is backpressure: the
   reader is not keeping up, so the overflowing reply is dropped, the
   connection is marked closing (it drains what was already queued,
   then closes) and the event is counted. *)
let respond t conn reply =
  if not conn.closed then begin
    let n = String.length reply + 1 in
    if queued conn + n > t.max_output_bytes then begin
      (* Count the close once, not once per reply dropped after it. *)
      if not conn.closing then Metrics.Counter.incr m_backpressure;
      Queue.clear conn.pending;
      conn.closing <- true
    end
    else begin
      let o = conn.out in
      out_reserve o n;
      Bytes.blit_string reply 0 o.ob o.ob_end (n - 1);
      Bytes.set o.ob (o.ob_end + n - 1) '\n';
      o.ob_end <- o.ob_end + n;
      if queued conn > t.out_high_water then begin
        t.out_high_water <- queued conn;
        Metrics.Gauge.set_int m_out_high_water t.out_high_water
      end
    end
  end

(* Push this connection's desired interest set to the readiness layer;
   [Evloop.modify] is one array store, so calling this after every
   state transition is cheap. *)
let sync_interest t conn =
  if not conn.closed then begin
    let read =
      (not conn.closing) && (not conn.eof)
      && Queue.length conn.pending < max_pending_lines
    in
    let write = queued conn > 0 in
    Evloop.modify t.ev conn.fd ~read ~write
  end

(* A connection is stalled when its next command is an EPOCH and its
   tenant's epoch is in flight: the command stays queued, and
   re-dispatches once that epoch commits. *)
let stalled conn =
  match (Queue.peek_opt conn.pending, conn.session) with
  | Some Epoch, Some s -> Service.epoch_in_flight s.s_service
  | _ -> false

(* Does this connection have work the dispatcher could make progress
   on right now? Paused states (awaiting an off-thread epoch result,
   stalled behind the tenant's in-flight epoch) are excluded so they
   do not drive zero-timeout spin rounds. *)
let has_dispatch_work conn =
  (not conn.closed) && (not conn.closing) && (not conn.awaiting_epoch)
  && (not (Queue.is_empty conn.pending))
  && not (stalled conn)

(* ---- Command dispatch ---- *)

let no_tenant_reply = "ERR no tenant bound (TENANT USE <name>)"

(* A multi-line reply: [OK <n>], then the [n] lines. *)
let ok_lines lines =
  String.concat "\n" (Printf.sprintf "OK %d" (List.length lines) :: lines)

let tenant_list_lines t =
  ok_lines
    (List.map
       (fun name ->
         let s = Hashtbl.find t.sessions name in
         Printf.sprintf "%s conns=%d statements=%d epochs=%d weight=%d" name
           s.s_conns
           (Service.statements s.s_service)
           (Service.epoch_count s.s_service)
           s.s_weight)
       (tenants t))

let bind_session t conn target =
  match conn.session with
  | Some s when s == target -> Ok ()
  | prev ->
    if
      target.s_conns >= t.max_tenant_connections
    then Error (Printf.sprintf "tenant %s is full" target.s_name)
    else begin
      (match prev with
       | Some s ->
         s.s_conns <- s.s_conns - 1;
         Metrics.Gauge.set_int s.s_live s.s_conns
       | None -> ());
      target.s_conns <- target.s_conns + 1;
      Metrics.Gauge.set_int target.s_live target.s_conns;
      conn.session <- Some target;
      Ok ()
    end

let handle_tenant t conn rest =
  let words = List.filter (( <> ) "") (String.split_on_char ' ' rest) in
  match words with
  | [] -> "ERR tenant subcommand required (CREATE/USE/DROP/LIST)"
  | sub :: args ->
    (match (String.uppercase_ascii sub, args) with
     | "LIST", [] -> tenant_list_lines t
     | "LIST", _ -> "ERR tenant list takes no arguments"
     | "CREATE", (name :: rest_args) when List.length rest_args <= 1 ->
       if not (valid_tenant_name name) then
         "ERR invalid tenant name (want [A-Za-z0-9_.-]{1,64})"
       else if Hashtbl.mem t.sessions name then
         Printf.sprintf "ERR tenant %s exists" name
       else begin
         let dbspec = match rest_args with [ d ] -> d | _ -> name in
         match t.factory dbspec with
         | Error msg -> "ERR " ^ msg
         | Ok service ->
           Hashtbl.replace t.sessions name (make_session name service);
           Metrics.Gauge.set_int m_tenants (Hashtbl.length t.sessions);
           Printf.sprintf "OK tenant %s created" name
       end
     | "CREATE", _ -> "ERR usage: TENANT CREATE <name> [<db>]"
     | "USE", [ name ] ->
       (match Hashtbl.find_opt t.sessions name with
        | None -> Printf.sprintf "ERR no such tenant %s" name
        | Some s ->
          (match bind_session t conn s with
           | Ok () -> Printf.sprintf "OK tenant %s" name
           | Error msg -> "ERR " ^ msg))
     | "USE", _ -> "ERR usage: TENANT USE <name>"
     | "DROP", [ name ] ->
       (match Hashtbl.find_opt t.sessions name with
        | None -> Printf.sprintf "ERR no such tenant %s" name
        | Some s ->
          Hashtbl.remove t.sessions name;
          Metrics.Gauge.set_int m_tenants (Hashtbl.length t.sessions);
          (* Unbind this tenant's connections; they keep draining and
             may rebind with TENANT USE. A connection stalled behind
             this tenant's in-flight epoch unstalls — the session it
             was waiting on is gone. *)
          let unbound = ref 0 in
          Hashtbl.iter
            (fun _ c ->
              match c.session with
              | Some s' when s' == s ->
                c.session <- None;
                incr unbound
              | _ -> ())
            t.conns;
          s.s_conns <- 0;
          Metrics.Gauge.set_int s.s_live 0;
          Printf.sprintf "OK tenant %s dropped conns=%d" name !unbound)
     | "DROP", _ -> "ERR usage: TENANT DROP <name>"
     | _ -> "ERR unknown tenant subcommand (CREATE/USE/DROP/LIST)")

(* Answer one [Other] command: the reply, and whether the connection
   should close or the daemon stop. Service verbs dispatch through the
   connection's bound session. A verb that takes no arguments answers
   ERR when given some, and does nothing else. *)
let handle_command t conn verb rest =
  let with_session f =
    match conn.session with
    | None -> no_tenant_reply
    | Some s ->
      Metrics.Counter.incr s.s_commands;
      f s
  in
  match verb with
  | "STMT" -> ("ERR empty statement", `Keep)
  | "STATS" | "CONFIG" | "EPOCH" | "METRICS" | "QUIT" | "SHUTDOWN"
    when rest <> "" ->
    ("ERR usage: " ^ verb ^ " takes no arguments", `Keep)
  | "STATS" -> (with_session (fun s -> "OK " ^ stats_line s.s_service), `Keep)
  | "CONFIG" ->
    ( with_session (fun s ->
          let db = Service.database s.s_service in
          ok_lines
            (List.map
               (fun ix ->
                 Printf.sprintf "%s %d" (Index.to_string ix)
                   (Database.index_pages db ix))
               (Service.config s.s_service))),
      `Keep )
  | "METRICS" -> (ok_lines (Metrics.dump_lines Metrics.default), `Keep)
  | "TENANT" -> (handle_tenant t conn rest, `Keep)
  | "QUIT" -> ("OK bye", `Close)
  | "SHUTDOWN" -> ("OK shutting down", `Stop)
  | "" -> ("ERR empty command", `Keep)
  | _ -> ("ERR unknown command", `Keep)

let dispatch_other t conn ~verb ~rest histogram =
  let reply, action =
    Metrics.time histogram (fun () -> handle_command t conn verb rest)
  in
  if action <> `Keep then begin
    conn.closing <- true;
    Queue.clear conn.pending;
    if action = `Stop then t.running <- false
  end;
  respond t conn reply

(* Hand an epoch thunk to the worker domain and pause this connection
   until its completion is delivered. *)
let submit_epoch t s conn kind job =
  Epoch_worker.submit t.worker (s, conn, kind) job;
  conn.awaiting_epoch <- true;
  Metrics.Counter.incr m_epoch_offloaded

(* Feed one statement through the session's intake. A fired trigger
   becomes an off-thread epoch: the statement's reply waits for it and
   the lines behind it stay in [conn.pending] until it lands. The
   latency histogram records the intake time of statements that fire
   nothing; a triggering statement's latency is its epoch's, recorded
   by [handle_completion]. *)
let dispatch_stmt t conn s sql =
  Metrics.Counter.incr s.s_commands;
  match Im_util.Stopwatch.time (fun () -> Service.intake s.s_service sql) with
  | (ev, None), elapsed ->
    Metrics.Histogram.observe m_stmt_seconds elapsed;
    respond t conn (stmt_reply ev)
  | (_, Some trig), _ ->
    submit_epoch t s conn `Stmt (Service.begin_epoch s.s_service trig)

(* Dispatch up to [min !budget cap] commands on one connection, one at
   a time, decrementing the session's shared [budget]. A STMT feeds the
   session and an EPOCH offloads; either one that leaves the connection
   awaiting an epoch ends the turn, as does an EPOCH stalled behind the
   tenant's in-flight epoch (no budget spent). *)
let dispatch_conn t conn budget ~cap =
  let turn = ref (min !budget cap) in
  while !turn > 0 && t.running && has_dispatch_work conn do
    let command = Queue.pop conn.pending in
    decr turn;
    decr budget;
    t.commands_served <- t.commands_served + 1;
    Metrics.Counter.incr m_commands;
    match (command, conn.session) with
    | Stmt sql, Some s -> dispatch_stmt t conn s sql
    | Epoch, Some s -> (
      Metrics.Counter.incr s.s_commands;
      match Service.begin_forced_epoch s.s_service with
      | Error msg -> respond t conn ("ERR " ^ msg)
      | Ok job -> submit_epoch t s conn `Forced job)
    | (Stmt _ | Epoch), None -> respond t conn no_tenant_reply
    | Other { verb; rest; histogram }, _ ->
      dispatch_other t conn ~verb ~rest histogram
  done;
  if not conn.closed then begin
    flush_out t conn;
    maybe_close_drained t conn;
    sync_interest t conn
  end

(* Spend one session's round budget (weight x base) across its
   connections, round-robin in bounded turns so a single pipelining
   connection cannot drain the whole tenant budget first. *)
let dispatch_session t s conns =
  let budget = ref (commands_per_round * s.s_weight) in
  let single = match conns with [ _ ] -> true | _ -> false in
  let progress = ref true in
  while !budget > 0 && !progress && t.running do
    progress := false;
    List.iter
      (fun conn ->
        if !budget > 0 && has_dispatch_work conn then begin
          let before = !budget in
          let cap = if single then !budget else commands_per_turn in
          dispatch_conn t conn budget ~cap;
          if !budget < before then progress := true
        end)
      conns
  done;
  if !budget = 0 && List.exists has_dispatch_work conns then
    Metrics.Counter.incr m_fairness_deferred

(* One fairness round over every connection with dispatchable work:
   group by session, rotate the session order, give each session its
   weighted budget. Unbound connections (tenant dropped) get the base
   budget each. Returns whether any connection still has work, so the
   next poll does not block. *)
let dispatch_round t =
  let groups : (string, session * conn list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let unbound = ref [] in
  Hashtbl.iter
    (fun _ conn ->
      if has_dispatch_work conn then
        match conn.session with
        | Some s -> (
          match Hashtbl.find_opt groups s.s_name with
          | Some (_, l) -> l := conn :: !l
          | None -> Hashtbl.replace groups s.s_name (s, ref [ conn ]))
        | None -> unbound := conn :: !unbound)
    t.conns;
  if Hashtbl.length groups > 0 || !unbound <> [] then begin
    let names =
      List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) groups [])
    in
    (* Rotate who goes first so equal-weight tenants alternate. *)
    let k = t.rr_cursor mod max 1 (List.length names) in
    let names =
      List.filteri (fun i _ -> i >= k) names
      @ List.filteri (fun i _ -> i < k) names
    in
    t.rr_cursor <- t.rr_cursor + 1;
    List.iter
      (fun name ->
        if t.running then begin
          let s, conns = Hashtbl.find groups name in
          dispatch_session t s (List.rev !conns)
        end)
      names;
    List.iter
      (fun conn ->
        if t.running && has_dispatch_work conn then begin
          let budget = ref commands_per_round in
          dispatch_conn t conn budget ~cap:commands_per_round
        end)
      (List.rev !unbound)
  end;
  Hashtbl.fold (fun _ conn busy -> busy || has_dispatch_work conn) t.conns false

(* ---- Epoch completions ---- *)

(* Land one off-thread epoch on the dispatch thread: commit (or abort)
   the service state and answer the connection that asked; the
   tenant's connections stalled behind it dispatch again. A raising
   epoch answers ERR and leaves the tenant on its committed
   configuration; it never unwinds the serve loop. *)
let handle_completion t (c : _ Epoch_worker.completion) =
  let s, conn, kind = c.Epoch_worker.c_tag in
  let reply =
    match c.Epoch_worker.c_result with
    | Ok o ->
      let (), commit_s =
        Im_util.Stopwatch.time (fun () -> Service.commit_epoch s.s_service o)
      in
      Metrics.Gauge.add m_dispatch_stall commit_s;
      Metrics.Counter.incr s.s_epochs;
      (match kind with
       | `Stmt ->
         Metrics.Histogram.observe m_stmt_seconds o.Epoch.e_elapsed_s;
         "OK observed " ^ epoch_line o
       | `Forced ->
         Metrics.Histogram.observe m_epoch_seconds o.Epoch.e_elapsed_s;
         "OK " ^ epoch_line o)
    | Error e ->
      Service.abort_epoch s.s_service;
      "ERR epoch failed: " ^ Printexc.to_string e
  in
  conn.awaiting_epoch <- false;
  if not conn.closed then begin
    conn.last_active <- Im_util.Stopwatch.now_s ();
    respond t conn reply;
    flush_out t conn;
    maybe_close_drained t conn;
    sync_interest t conn
  end

(* ---- Reading ---- *)

(* Queue the lines completed by the [n] bytes just read into [rbuf];
   the partial line before them waits in [conn.buf], and the partial
   line after them goes there. Only the new bytes are scanned and each
   byte is copied into [conn.buf] at most once, so a long line sent in
   small pieces costs O(bytes), not O(bytes^2). *)
let extract_lines conn rbuf n =
  let start = ref 0 in
  for i = 0 to n - 1 do
    if Bytes.get rbuf i = '\n' then begin
      let line =
        if Buffer.length conn.buf = 0 then
          Bytes.sub_string rbuf !start (i - !start)
        else begin
          Buffer.add_subbytes conn.buf rbuf !start (i - !start);
          let line = Buffer.contents conn.buf in
          Buffer.reset conn.buf;
          line
        end
      in
      (* [String.trim] also drops a CRLF line's '\r'. *)
      Queue.push (parse_command (String.trim line)) conn.pending;
      start := i + 1
    end
  done;
  Buffer.add_subbytes conn.buf rbuf !start (n - !start)

let read_chunk t conn =
  match Unix.read conn.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 ->
    (* Half close: the peer promises no more input. Answer what it
       already pipelined, drain the replies, then close — closing here
       discarded every queued reply. *)
    conn.eof <- true;
    Buffer.clear conn.buf;  (* a partial line can never complete now *)
    maybe_close_drained t conn
  | n ->
    conn.last_active <- Im_util.Stopwatch.now_s ();
    Metrics.Counter.add m_bytes_in n;
    extract_lines conn t.rbuf n;
    if Buffer.length conn.buf > max_line_bytes then begin
      (* A single line this long is abuse, not SQL: diagnose, count,
         and close once the error (and nothing else) drains. *)
      Metrics.Counter.incr m_overlong;
      Buffer.clear conn.buf;
      Queue.clear conn.pending;
      respond t conn "ERR line too long";
      conn.closing <- true;
      flush_out t conn;
      maybe_close_drained t conn
    end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
    (* A reset peer that is still owed replies lost them exactly as if
       the daemon had hit the reset on [write]; which side notices the
       reset first is a race, so count it the same way. *)
    if owes_replies conn then Metrics.Counter.incr m_write_errors;
    close_conn t conn

(* ---- Accepting ---- *)

let overload_msg = "ERR too many connections\n"
let tenant_overload_msg = "ERR too many connections for tenant\n"

(* Best-effort reject: the fd is nonblocking *before* the write, so a
   connect-and-never-read client cannot stall the accept loop; a
   partial or failed write is ignored. *)
let reject_fd fd msg =
  Metrics.Counter.incr m_rejected;
  (try ignore (Unix.write_substring fd msg 0 (String.length msg))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Replies go out with Nagle's algorithm off: with it on, a reply
   written while an earlier one is unacknowledged waits for the ACK
   that rides on the client's next command (the client delays its
   ACK), so a paced client gets every reply one command interval late.
   [flush_out] coalesces a turn's replies into one write, so the flag
   does not turn each reply into its own segment. *)
let admit t fd =
  Unix.set_nonblock fd;
  let session = Hashtbl.find_opt t.sessions t.default_tenant in
  if Hashtbl.length t.conns >= t.max_connections then reject_fd fd overload_msg
  else if
    match session with
    | Some s -> s.s_conns >= t.max_tenant_connections
    | None -> false
  then reject_fd fd tenant_overload_msg
  else begin
    (try Unix.setsockopt fd Unix.TCP_NODELAY true
     with Unix.Unix_error _ -> ());
    Evloop.add t.ev fd ~read:true ~write:false;
    t.connections_served <- t.connections_served + 1;
    let conn =
      {
        fd;
        buf = Buffer.create 256;
        pending = Queue.create ();
        out = { ob = Bytes.empty; ob_sent = 0; ob_end = 0 };
        session = None;
        last_active = Im_util.Stopwatch.now_s ();
        closing = false;
        eof = false;
        closed = false;
        awaiting_epoch = false;
      }
    in
    (match session with
     | Some s ->
       s.s_conns <- s.s_conns + 1;
       Metrics.Gauge.set_int s.s_live s.s_conns;
       conn.session <- Some s
     | None -> ());
    Hashtbl.replace t.conns fd conn;
    Metrics.Gauge.set_int m_live (Hashtbl.length t.conns)
  end

(* Accept every connection the kernel has queued, not one per loop
   round: a burst of N connects previously took N rounds. Bounded so a
   connect flood cannot starve established connections either. Out of
   descriptors, the burst ends and the listener stops being polled
   until a connection closes, or until the next reap tick (ENFILE is
   system-wide: another process may free one): the connects wait in
   the kernel backlog. *)
let accept_burst t =
  let accepted = ref 0 in
  let continue = ref true in
  while !continue && !accepted < 1024 do
    match Unix.accept t.listener with
    | fd, _addr ->
      incr accepted;
      admit t fd
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
      ()
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      set_accepting t false;
      continue := false
  done;
  if float_of_int !accepted > Metrics.Gauge.value m_accept_burst then
    Metrics.Gauge.set_int m_accept_burst !accepted

(* ---- Reaping ---- *)

(* Throttled to twice a second — it walks every connection. A
   connection owed an off-thread epoch reply (or queued behind one) is
   never reaped: its idleness is the daemon's doing, and its reply is
   still coming. *)
let reap_idle t =
  let now = Im_util.Stopwatch.now_s () in
  if now -. t.last_reap >= 0.5 then begin
    t.last_reap <- now;
    set_accepting t true;
    let snapshot = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    List.iter
      (fun conn ->
        if
          (not conn.closed) && (not conn.awaiting_epoch)
          && (not (stalled conn))
          && now -. conn.last_active > t.read_timeout
        then begin
          (* Give queued replies a last chance to leave before dropping
             the connection. *)
          flush_out t conn;
          if not conn.closed then
            if
              queued conn = 0
              (* Pending output on a still-writable socket means the
                 main loop will drain it next round; reap only sockets
                 that stopped accepting bytes. The probe goes through
                 poll(2), which works on any fd number. *)
              || not (Evloop.writable conn.fd)
            then begin
              Metrics.Counter.incr m_reaped;
              close_conn t conn
            end
        end)
      snapshot
  end

(* ---- Event loop ---- *)

let drain_wake t =
  let bytes = Bytes.create 256 in
  let continue = ref true in
  while !continue do
    match Unix.read t.wake_r bytes 0 256 with
    | 0 -> continue := false
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let serve t =
  t.running <- true;
  ignore (Evloop.raise_fd_limit (t.max_connections + fd_headroom));
  Unix.set_nonblock t.listener;
  let busy = ref false in
  while t.running do
    (* Undispatched work (fairness-deferred) re-polls with a zero
       timeout; paused connections have none, so a long off-thread
       epoch leaves the loop blocking idle. *)
    let timeout_s = if !busy then 0.0 else 1.0 in
    let events = Evloop.wait t.ev ~timeout_s in
    let listener_ready = ref false in
    let wake_ready = ref false in
    let ready =
      List.filter_map
        (fun ev ->
          let fd = ev.Evloop.ev_fd in
          if fd = t.listener then begin
            if ev.Evloop.ev_read then listener_ready := true;
            None
          end
          else if fd = t.wake_r then begin
            wake_ready := true;
            None
          end
          else
            (* Handlers may close connections mid-round; the table is
               the source of truth for who is still alive. *)
            match Hashtbl.find_opt t.conns fd with
            | Some conn -> Some (conn, ev)
            | None -> None)
        events
    in
    if !listener_ready then accept_burst t;
    if !wake_ready then drain_wake t;
    List.iter
      (fun (conn, ev) ->
        if ev.Evloop.ev_write && (not conn.closed) && queued conn > 0
        then begin
          flush_out t conn;
          maybe_close_drained t conn;
          sync_interest t conn
        end)
      ready;
    List.iter
      (fun (conn, ev) ->
        (* Poll reports HUP/ERR regardless of the interest mask:
           gate on the interest the server actually holds so a paused
           connection is not read early. *)
        if
          ev.Evloop.ev_read && (not conn.closed) && (not conn.closing)
          && (not conn.eof)
          && Queue.length conn.pending < max_pending_lines
        then begin
          read_chunk t conn;
          sync_interest t conn
        end)
      ready;
    List.iter (handle_completion t) (Epoch_worker.drain t.worker);
    busy := dispatch_round t;
    reap_idle t
  done;
  (* Graceful shutdown: finish in-flight epochs (their replies are
     owed), best-effort flush, then close everything. *)
  Epoch_worker.shutdown t.worker;
  List.iter (handle_completion t) (Epoch_worker.drain t.worker);
  let remaining = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  List.iter (fun conn -> flush_out t conn) remaining;
  List.iter
    (fun conn ->
      if not conn.closed then begin
        conn.closed <- true;
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      end)
    remaining;
  Hashtbl.reset t.conns;
  Metrics.Gauge.set_int m_live 0;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  try Unix.close t.listener with Unix.Unix_error _ -> ()

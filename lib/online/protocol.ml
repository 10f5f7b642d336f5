module Database = Im_catalog.Database
module Index = Im_catalog.Index
module Metrics = Im_obs.Metrics

let m_tenants = Metrics.gauge "server_tenants"

(* The cumulative seconds the dispatch thread has spent committing
   off-thread epochs. *)
let m_dispatch_stall = Metrics.gauge "server_dispatch_stall_seconds"

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

type command =
  | Stmt of string
  | Epoch
  | Other of { verb : string; rest : string; histogram : Metrics.Histogram.t }

let parse_command line =
  (* [String.trim] also drops a CRLF line's '\r'. *)
  let line = String.trim line in
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
   charset. A dropped session stays reachable from the clients still
   pointing at it, which read it as unbound. *)
type session = {
  s_name : string;
  s_service : Service.t;
  s_weight : int;
  mutable s_conns : int;  (* clients bound here; written by [add_conns] *)
  mutable s_dropped : bool;
  s_live : Metrics.Gauge.t;  (* server_tenant_connections_live{tenant} *)
  s_commands : Metrics.Counter.t;  (* server_tenant_commands_total{tenant} *)
  s_epochs : Metrics.Counter.t;  (* server_tenant_epochs_total{tenant} *)
}

let name s = s.s_name
let weight s = s.s_weight

let valid_tenant_name name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
         | _ -> false)
       name

let tenant_labels name = [ ("tenant", name) ]

let make_session (name, weight, service) =
  let labels = tenant_labels name in
  {
    s_name = name;
    s_service = service;
    s_weight = max 1 weight;
    s_conns = 0;
    s_dropped = false;
    s_live = Metrics.gauge ~labels "server_tenant_connections_live";
    s_commands = Metrics.counter ~labels "server_tenant_commands_total";
    s_epochs = Metrics.counter ~labels "server_tenant_epochs_total";
  }

type client = { mutable c_session : session option }

type state = {
  sessions : (string, session) Hashtbl.t;
  default_tenant : string;
  max_tenant_connections : int;
  factory : string -> (Service.t, string) result;
}

(* The largest tenant weight: the daemon's per-round budget of 128 x
   weight commands must not wrap, or that tenant is never served. *)
let max_weight = 1_000_000

let create ~max_tenant_connections ~factory tenants =
  let sessions = Hashtbl.create 8 in
  let add ((name, w, _) as tenant) =
    if not (valid_tenant_name name) then Some ("invalid tenant name " ^ name)
    else if Hashtbl.mem sessions name then Some ("duplicate tenant " ^ name)
    else if w > max_weight then
      Some
        (Printf.sprintf "weight %d of tenant %s is above %d" w name max_weight)
    else begin
      Hashtbl.replace sessions name (make_session tenant);
      None
    end
  in
  match (tenants, List.find_map add tenants) with
  | [], _ -> Error "no tenants"
  | _, Some msg -> Error msg
  | (default_tenant, _, _) :: _, None ->
    Metrics.Gauge.set_int m_tenants (Hashtbl.length sessions);
    let factory =
      Option.value factory ~default:(fun _ ->
          Error "tenant creation is not configured")
    in
    Ok { sessions; default_tenant; max_tenant_connections; factory }

let tenants st =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) st.sessions [])

let session c =
  match c.c_session with Some s when s.s_dropped -> None | b -> b

(* Every change to a session's connection count goes through here, so
   the count and its gauge never disagree. *)
let add_conns s n =
  s.s_conns <- s.s_conns + n;
  Metrics.Gauge.set_int s.s_live s.s_conns

(* Move [c] from its session, if it is still live, to [target]. *)
let bind c target =
  Option.iter (fun s -> add_conns s (-1)) (session c);
  Option.iter (fun s -> add_conns s 1) target;
  c.c_session <- target

let connect st =
  match Hashtbl.find_opt st.sessions st.default_tenant with
  | Some s when s.s_conns >= st.max_tenant_connections -> None
  | target ->
    let c = { c_session = None } in
    bind c target;
    Some c

let disconnect c = bind c None

let waits c command =
  match (command, session c) with
  | Epoch, Some s -> Service.epoch_in_flight s.s_service
  | (Stmt _ | Epoch | Other _), _ -> false

(* ---- Replies ---- *)

type action =
  | Continue
  | Close
  | Stop
  | Begin_epoch of session * [ `Stmt | `Forced ] * (unit -> Epoch.outcome)

let stats_line service =
  let underscored = String.map (fun c -> if c = ' ' then '_' else c) in
  Service.stats service
  |> List.map (fun (k, v) ->
         let k =
           match String.index_opt k '(' with
           | Some i -> String.trim (String.sub k 0 i)
           | None -> k
         in
         underscored k ^ "=" ^ underscored v)
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
   triggering statement is answered by [finish_epoch]). *)
let stmt_reply = function
  | Service.Rejected msg -> "ERR " ^ msg
  | Service.Observed { ev_drift = Some v; _ } ->
    Printf.sprintf "OK observed drift=%.3f regression=%.3f fired=%b"
      v.Drift.v_divergence v.Drift.v_regression v.Drift.v_fired
  | Service.Observed _ -> "OK observed"

let no_tenant_reply = "ERR no tenant bound (TENANT USE <name>)"

(* A multi-line reply: [OK <n>], then the [n] lines. *)
let ok_lines lines =
  String.concat "\n" (Printf.sprintf "OK %d" (List.length lines) :: lines)

let config_lines service =
  let db = Service.database service in
  ok_lines
    (List.map
       (fun ix ->
         Printf.sprintf "%s %d" (Index.to_string ix) (Database.index_pages db ix))
       (Service.config service))

let tenant_list_lines st =
  ok_lines
    (List.map
       (fun name ->
         let s = Hashtbl.find st.sessions name in
         Printf.sprintf "%s conns=%d statements=%d epochs=%d weight=%d" name
           s.s_conns
           (Service.statements s.s_service)
           (Service.epoch_count s.s_service)
           s.s_weight)
       (tenants st))

let handle_tenant st c rest =
  let words = List.filter (( <> ) "") (String.split_on_char ' ' rest) in
  match words with
  | [] -> "ERR tenant subcommand required (CREATE/USE/DROP/LIST)"
  | sub :: args ->
    (match (String.uppercase_ascii sub, args) with
     | "LIST", [] -> tenant_list_lines st
     | "LIST", _ -> "ERR tenant list takes no arguments"
     | "CREATE", (name :: rest_args) when List.length rest_args <= 1 ->
       if not (valid_tenant_name name) then
         "ERR invalid tenant name (want [A-Za-z0-9_.-]{1,64})"
       else if Hashtbl.mem st.sessions name then
         Printf.sprintf "ERR tenant %s exists" name
       else begin
         let dbspec = match rest_args with [ d ] -> d | _ -> name in
         match st.factory dbspec with
         | Error msg -> "ERR " ^ msg
         | Ok service ->
           Hashtbl.replace st.sessions name (make_session (name, 1, service));
           Metrics.Gauge.set_int m_tenants (Hashtbl.length st.sessions);
           Printf.sprintf "OK tenant %s created" name
       end
     | "CREATE", _ -> "ERR usage: TENANT CREATE <name> [<db>]"
     | "USE", [ name ] ->
       (match Hashtbl.find_opt st.sessions name with
        | None -> Printf.sprintf "ERR no such tenant %s" name
        | Some s ->
          let already = match session c with Some b -> b == s | None -> false in
          if (not already) && s.s_conns >= st.max_tenant_connections then
            Printf.sprintf "ERR tenant %s is full" name
          else begin
            bind c (Some s);
            Printf.sprintf "OK tenant %s" name
          end)
     | "USE", _ -> "ERR usage: TENANT USE <name>"
     | "DROP", [ name ] ->
       (match Hashtbl.find_opt st.sessions name with
        | None -> Printf.sprintf "ERR no such tenant %s" name
        | Some s ->
          (* Its clients read as unbound from now on ([session]); they
             keep draining and may rebind with TENANT USE. Its series go,
             so a tenant re-created under this name starts from zero. *)
          let conns = s.s_conns in
          Hashtbl.remove st.sessions name;
          Metrics.Gauge.set_int m_tenants (Hashtbl.length st.sessions);
          add_conns s (-conns);
          s.s_dropped <- true;
          Metrics.remove_labelled (tenant_labels name);
          Printf.sprintf "OK tenant %s dropped conns=%d" name conns)
     | "DROP", _ -> "ERR usage: TENANT DROP <name>"
     | _ -> "ERR unknown tenant subcommand (CREATE/USE/DROP/LIST)")

(* Answer one [Other] command. Service verbs dispatch through the
   client's bound session. A verb that takes no arguments answers ERR
   when given some, and does nothing else. *)
let handle_command st c verb rest =
  let with_session f =
    match session c with
    | None -> no_tenant_reply
    | Some s ->
      Metrics.Counter.incr s.s_commands;
      f s.s_service
  in
  match verb with
  | "STMT" -> ("ERR empty statement", Continue)
  | "STATS" | "CONFIG" | "EPOCH" | "METRICS" | "QUIT" | "SHUTDOWN"
    when rest <> "" ->
    ("ERR usage: " ^ verb ^ " takes no arguments", Continue)
  | "STATS" -> (with_session (fun svc -> "OK " ^ stats_line svc), Continue)
  | "CONFIG" -> (with_session config_lines, Continue)
  | "METRICS" -> (ok_lines (Metrics.dump_lines Metrics.default), Continue)
  | "TENANT" -> (handle_tenant st c rest, Continue)
  | "QUIT" -> ("OK bye", Close)
  | "SHUTDOWN" -> ("OK shutting down", Stop)
  | "" -> ("ERR empty command", Continue)
  | _ -> ("ERR unknown command", Continue)

(* STMT and EPOCH match [session] in place: a [with_session] closure
   would be one more allocation per statement. *)
let step st c = function
  | Stmt sql -> (
    match session c with
    | None -> (no_tenant_reply, Continue)
    | Some s -> (
      Metrics.Counter.incr s.s_commands;
      match Im_util.Stopwatch.time (fun () -> Service.intake s.s_service sql) with
      | (ev, None), elapsed ->
        Metrics.Histogram.observe m_stmt_seconds elapsed;
        (stmt_reply ev, Continue)
      | (_, Some trig), _ ->
        ("", Begin_epoch (s, `Stmt, Service.begin_epoch s.s_service trig))))
  | Epoch -> (
    match session c with
    | None -> (no_tenant_reply, Continue)
    | Some s -> (
      Metrics.Counter.incr s.s_commands;
      match Service.begin_forced_epoch s.s_service with
      | Error msg -> ("ERR " ^ msg, Continue)
      | Ok job -> ("", Begin_epoch (s, `Forced, job))))
  | Other { verb; rest; histogram } ->
    Metrics.time histogram (fun () -> handle_command st c verb rest)

let finish_epoch s kind result =
  match result with
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

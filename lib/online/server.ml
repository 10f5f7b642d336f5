module Metrics = Im_obs.Metrics
module Evloop = Im_evloop.Evloop

let m_commands = Metrics.counter "server_commands_total"
let m_live = Metrics.gauge "server_connections_live"
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

(* Off-thread epochs: how many re-merges went to the worker domain.
   Fairness: rounds where a tenant's deficit budget ran out with work
   still queued. *)
let m_epoch_offloaded = Metrics.counter "server_epoch_offloaded_total"
let m_fairness_deferred = Metrics.counter "server_fairness_deferred_total"

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
  pending : Protocol.command Queue.t;  (* complete lines awaiting dispatch *)
  out : outbuf;
  client : Protocol.client;
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
  max_output_bytes : int;
  proto : Protocol.state;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  rbuf : Bytes.t;  (* every connection's reads land here first *)
  ev : Evloop.t;
  wake_r : Unix.file_descr;  (* worker completions poke this pipe *)
  wake_w : Unix.file_descr;
  worker : (Protocol.session * conn * [ `Stmt | `Forced ]) Epoch_worker.t;
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
   get a turn. *)
let commands_per_round = 128

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

let create ?(host = "127.0.0.1") ?(port = 0) ?(read_timeout = 30.)
    ?(max_connections = 64) ?max_tenant_connections
    ?(max_output_bytes = 1_048_576) ?factory tenants =
  if max_connections < 1 then invalid_arg "Server.create: max_connections < 1";
  if not (Float.is_finite read_timeout && read_timeout > 0.) then
    invalid_arg "Server.create: read_timeout must be finite and > 0";
  if max_output_bytes < 1 then
    invalid_arg "Server.create: max_output_bytes < 1";
  let max_tenant_connections =
    match max_tenant_connections with
    | Some n when n > 0 -> n
    | Some _ | None -> max_connections
  in
  let proto =
    match Protocol.create ~max_tenant_connections ~factory tenants with
    | Ok proto -> proto
    | Error msg -> invalid_arg ("Server.create: " ^ msg)
  in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  (* Accepted sockets inherit the listener's buffer sizes; shrinking
     the send buffer (tests, or ops pinning memory per connection)
     makes slow readers surface as queued output instead of hiding in
     kernel buffers. *)
  (match Option.bind (Sys.getenv_opt "IM_SERVE_SNDBUF") int_of_string_opt with
   | Some n when n > 0 -> Unix.setsockopt_int listener Unix.SO_SNDBUF n
   | Some _ | None -> ());
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen listener 2048;
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
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
    max_output_bytes;
    proto;
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
let tenants t = Protocol.tenants t.proto

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
    Protocol.disconnect conn.client;
    Metrics.Gauge.set_int m_live (Hashtbl.length t.conns);
    (* A descriptor came free: accept again if we ran out. *)
    set_accepting t true
  end

(* Take no more input and drop the commands not yet run: the
   connection closes once its queued output drains. *)
let close_after_drain conn =
  conn.closing <- true;
  Queue.clear conn.pending

(* ---- Output buffer ---- *)

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
let rec flush_out t conn =
  let o = conn.out in
  if (not conn.closed) && o.ob_end > o.ob_sent then
    match Unix.single_write conn.fd o.ob o.ob_sent (o.ob_end - o.ob_sent) with
    | n ->
      Metrics.Counter.add m_bytes_out n;
      Metrics.Counter.incr m_writes;
      o.ob_sent <- o.ob_sent + n;
      if o.ob_sent = o.ob_end then out_drained o;
      flush_out t conn
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()  (* kernel buffer full: wait for writable *)
    | exception
        Unix.Unix_error
          ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN), _, _)
      ->
      Metrics.Counter.incr m_write_errors;
      out_drained o;
      close_conn t conn

(* Replies this connection has not received yet: queued output,
   commands still to dispatch, or an epoch running off-thread on its
   behalf. *)
let owes_replies conn =
  queued conn > 0
  || (not (Queue.is_empty conn.pending))
  || conn.awaiting_epoch

(* A closing connection goes once its output drains; a half-closed one
   also waits for its received commands to be answered (the peer's FIN
   promises no more input, not disinterest in the replies it
   pipelined), and for an off-thread epoch's reply it is owed. *)
let maybe_close_drained t conn =
  if (not conn.closed) && (conn.closing || conn.eof) && not (owes_replies conn)
  then close_conn t conn

(* Queue one reply. Exceeding the output cap is backpressure: the
   reader is not keeping up, so the overflowing reply is dropped, the
   connection closes after draining what was already queued, and the
   event is counted. *)
let respond t conn reply =
  if not conn.closed then begin
    let n = String.length reply + 1 in
    if queued conn + n > t.max_output_bytes then begin
      (* Count the close once, not once per reply dropped after it. *)
      if not conn.closing then Metrics.Counter.incr m_backpressure;
      close_after_drain conn
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

(* The connection takes more input: not closing, not half-closed, and
   under the input backpressure mark. *)
let wants_input conn =
  (not conn.closing) && (not conn.eof)
  && Queue.length conn.pending < max_pending_lines

(* Push this connection's desired interest set to the readiness layer;
   [Evloop.modify] is one array store, so calling this after every
   state transition is cheap. *)
let sync_interest t conn =
  if not conn.closed then
    Evloop.modify t.ev conn.fd ~read:(wants_input conn) ~write:(queued conn > 0)

(* After a connection's state changed: send what is queued, close it
   if it is done, and poll for what it waits on now. *)
let settle t conn =
  flush_out t conn;
  maybe_close_drained t conn;
  sync_interest t conn

(* A connection is stalled when its next command must wait for its
   tenant's in-flight epoch ([Protocol.waits]): the command stays
   queued, and re-dispatches once that epoch commits. *)
let stalled conn =
  (not (Queue.is_empty conn.pending))
  && Protocol.waits conn.client (Queue.peek conn.pending)

(* Does this connection have work the dispatcher could make progress
   on right now? Paused states (awaiting an off-thread epoch result,
   stalled behind the tenant's in-flight epoch) are excluded so they
   do not drive zero-timeout spin rounds. *)
let has_dispatch_work conn =
  (not conn.closed) && (not conn.closing) && (not conn.awaiting_epoch)
  && (not (Queue.is_empty conn.pending))
  && not (stalled conn)

(* ---- Command dispatch ---- *)

(* Dispatch up to [min !budget cap] commands on one connection, one at
   a time through [Protocol.step], decrementing the session's shared
   [budget]. A command that begins an epoch hands it to the worker
   domain and pauses the connection until its completion is delivered
   (the lines behind it stay in [conn.pending]); that ends the turn, as
   does a command stalled behind the tenant's in-flight epoch (no
   budget spent). *)
let dispatch_conn t conn budget ~cap =
  let turn = ref (min !budget cap) in
  while !turn > 0 && t.running && has_dispatch_work conn do
    let command = Queue.pop conn.pending in
    decr turn;
    decr budget;
    t.commands_served <- t.commands_served + 1;
    Metrics.Counter.incr m_commands;
    match Protocol.step t.proto conn.client command with
    | reply, Protocol.Continue -> respond t conn reply
    | reply, Protocol.Close ->
      close_after_drain conn;
      respond t conn reply
    | reply, Protocol.Stop ->
      close_after_drain conn;
      t.running <- false;
      respond t conn reply
    | _, Protocol.Begin_epoch (s, kind, job) ->
      Epoch_worker.submit t.worker (s, conn, kind) job;
      conn.awaiting_epoch <- true;
      Metrics.Counter.incr m_epoch_offloaded
  done;
  settle t conn

(* Spend one session's round budget (weight x base) across its
   connections, round-robin in bounded turns so a single pipelining
   connection cannot drain the whole tenant budget first. *)
let dispatch_session t s conns =
  let budget = ref (commands_per_round * Protocol.weight s) in
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
  let groups = Hashtbl.create 8 and unbound = ref [] in
  Hashtbl.iter
    (fun _ conn ->
      if has_dispatch_work conn then
        match Protocol.session conn.client with
        | Some s ->
          let name = Protocol.name s in
          let _, l = Option.value (Hashtbl.find_opt groups name) ~default:(s, []) in
          Hashtbl.replace groups name (s, conn :: l)
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
          dispatch_session t s (List.rev conns)
        end)
      names;
    List.iter
      (fun conn ->
        if t.running && has_dispatch_work conn then
          dispatch_conn t conn (ref commands_per_round) ~cap:commands_per_round)
      (List.rev !unbound)
  end;
  Hashtbl.fold (fun _ conn busy -> busy || has_dispatch_work conn) t.conns false

(* Land one off-thread epoch on the dispatch thread and answer the
   connection that asked; the tenant's connections stalled behind it
   dispatch again. A raising epoch answers ERR; it never unwinds the
   serve loop. *)
let handle_completion t (c : _ Epoch_worker.completion) =
  let s, conn, kind = c.Epoch_worker.c_tag in
  let reply = Protocol.finish_epoch s kind c.Epoch_worker.c_result in
  conn.awaiting_epoch <- false;
  conn.last_active <- Im_util.Stopwatch.now_s ();
  respond t conn reply;
  settle t conn

(* ---- Reading ---- *)

(* Queue the lines completed by the [n] bytes just read into [rbuf];
   the partial line before them waits in [conn.buf], and the partial
   line after them goes there. Only the new bytes are scanned and each
   byte is copied into [conn.buf] at most once, so a long line sent in
   small pieces costs O(bytes), not O(bytes^2). [false] as soon as a
   line, complete or not, is longer than [max_line_bytes]. *)
let extract_lines conn rbuf n =
  let rec scan start i =
    if i = n then begin
      Buffer.add_subbytes conn.buf rbuf start (n - start);
      Buffer.length conn.buf <= max_line_bytes
    end
    else if Bytes.get rbuf i <> '\n' then scan start (i + 1)
    else if Buffer.length conn.buf + i - start > max_line_bytes then false
    else begin
      let line =
        if Buffer.length conn.buf = 0 then Bytes.sub_string rbuf start (i - start)
        else begin
          Buffer.add_subbytes conn.buf rbuf start (i - start);
          let line = Buffer.contents conn.buf in
          Buffer.reset conn.buf;
          line
        end
      in
      Queue.push (Protocol.parse_command line) conn.pending;
      scan (i + 1) (i + 1)
    end
  in
  scan 0 0

let read_chunk t conn =
  match Unix.read conn.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 ->
    (* Half close: the peer promises no more input. Answer what it
       already pipelined, drain the replies, then close. *)
    conn.eof <- true;
    Buffer.clear conn.buf;  (* a partial line can never complete now *)
    maybe_close_drained t conn
  | n ->
    conn.last_active <- Im_util.Stopwatch.now_s ();
    Metrics.Counter.add m_bytes_in n;
    if not (extract_lines conn t.rbuf n) then begin
      (* A single line this long is abuse, not SQL: diagnose, count,
         and close once the error (and nothing else) drains. *)
      Metrics.Counter.incr m_overlong;
      Buffer.clear conn.buf;
      respond t conn "ERR line too long";
      close_after_drain conn;
      settle t conn
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
  if Hashtbl.length t.conns >= t.max_connections then reject_fd fd overload_msg
  else
    match Protocol.connect t.proto with
    | None -> reject_fd fd tenant_overload_msg
    | Some client ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      Evloop.add t.ev fd ~read:true ~write:false;
      t.connections_served <- t.connections_served + 1;
      Hashtbl.replace t.conns fd
        {
          fd;
          buf = Buffer.create 256;
          pending = Queue.create ();
          out = { ob = Bytes.empty; ob_sent = 0; ob_end = 0 };
          client;
          last_active = Im_util.Stopwatch.now_s ();
          closing = false;
          eof = false;
          closed = false;
          awaiting_epoch = false;
        };
      Metrics.Gauge.set_int m_live (Hashtbl.length t.conns)

(* Accept every connection the kernel has queued, bounded so a connect
   flood cannot starve established connections. Out of descriptors,
   the burst ends and the listener stops being polled until a
   connection closes, or until the next reap tick (ENFILE is
   system-wide: another process may free one): the connects wait in
   the kernel backlog. *)
let accept_burst t =
  let rec go accepted =
    if accepted >= 1024 then accepted
    else
      match Unix.accept t.listener with
      | fd, _addr ->
        admit t fd;
        go (accepted + 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        accepted
      | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
        go accepted
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
        set_accepting t false;
        accepted
  in
  let accepted = go 0 in
  if float_of_int accepted > Metrics.Gauge.value m_accept_burst then
    Metrics.Gauge.set_int m_accept_burst accepted

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
          (* Pending output on a still-writable socket means the main
             loop will drain it next round; reap only sockets that
             stopped accepting bytes. The probe goes through poll(2),
             which works on any fd number. *)
          if
            (not conn.closed)
            && (queued conn = 0 || not (Evloop.writable conn.fd))
          then begin
              Metrics.Counter.incr m_reaped;
              close_conn t conn
            end
        end)
      snapshot
  end

(* ---- Event loop ---- *)

let serve t =
  t.running <- true;
  ignore (Evloop.raise_fd_limit (t.max_connections + fd_headroom));
  Unix.set_nonblock t.listener;
  let busy = ref false in
  while t.running do
    (* Undispatched work (fairness-deferred) re-polls with a zero
       timeout; paused connections have none, so a long off-thread
       epoch leaves the loop blocking idle. *)
    let events = Evloop.wait t.ev ~timeout_s:(if !busy then 0.0 else 1.0) in
    let ready =
      List.filter_map
        (fun ev ->
          let fd = ev.Evloop.ev_fd in
          if fd = t.listener then begin
            if ev.Evloop.ev_read then accept_burst t;
            None
          end
          else if fd = t.wake_r then begin
            (* Completions are drained below, so the wake-up bytes carry
               nothing; more than one read's worth re-polls as ready. *)
            (try ignore (Unix.read fd t.rbuf 0 read_bytes)
             with Unix.Unix_error _ -> ());
            None
          end
          else
            (* Handlers may close connections mid-round; the table is
               the source of truth for who is still alive. *)
            Option.map (fun conn -> (conn, ev)) (Hashtbl.find_opt t.conns fd))
        events
    in
    List.iter
      (fun (conn, ev) ->
        if ev.Evloop.ev_write && (not conn.closed) && queued conn > 0 then
          settle t conn)
      ready;
    List.iter
      (fun (conn, ev) ->
        (* Poll reports HUP/ERR regardless of the interest mask:
           gate on the interest the server actually holds so a paused
           connection is not read early. *)
        if ev.Evloop.ev_read && (not conn.closed) && wants_input conn then begin
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
  Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
  |> List.iter (fun conn ->
         flush_out t conn;
         close_conn t conn);
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  try Unix.close t.listener with Unix.Unix_error _ -> ()

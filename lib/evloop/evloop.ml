type backend = Auto | Epoll | Poll

external fd_int : Unix.file_descr -> int = "%identity"
external fd_of_int : int -> Unix.file_descr = "%identity"

external epoll_available : unit -> bool = "caml_im_evloop_epoll_available"
external epoll_create : unit -> int = "caml_im_evloop_epoll_create"
external epoll_ctl : int -> int -> int -> int -> unit = "caml_im_evloop_epoll_ctl"
external epoll_wait : int -> int -> (int * int) array = "caml_im_evloop_epoll_wait"

external poll_stub :
  int array -> int array -> int array -> int -> int -> int
  = "caml_im_evloop_poll"

external raise_nofile : int -> int = "caml_im_evloop_raise_nofile"

let raise_fd_limit n = raise_nofile n

(* Interest bits, mirrored in evloop_stubs.c. *)
let bit_read = 1
let bit_write = 2

let bits ~read ~write = (if read then bit_read else 0) lor (if write then bit_write else 0)

(* Slot arrays for the poll backend: parallel [fds]/[interests] packed
   in [0, n); [index] maps fd -> slot; removal swaps the last slot in,
   so the arrays never need a full rebuild. *)
type poll_state = {
  mutable p_fds : int array;
  mutable p_interests : int array;
  mutable p_revents : int array;
  mutable p_n : int;
  p_index : (int, int) Hashtbl.t;
}

type impl =
  | I_epoll of int (* epoll fd *)
  | I_poll of poll_state

type t = {
  impl : impl;
  (* fd -> current interest bits, for modify-dedup and [registered]. *)
  interest : (int, int) Hashtbl.t;
}

type event = {
  ev_fd : Unix.file_descr;
  ev_read : bool;
  ev_write : bool;
}

let create ?(backend = Auto) () =
  let impl =
    match backend with
    | Epoll ->
        if not (epoll_available ()) then
          failwith "event backend epoll is not available on this platform";
        I_epoll (epoll_create ())
    | Auto when epoll_available () -> I_epoll (epoll_create ())
    | Poll | Auto ->
        I_poll
          {
            p_fds = Array.make 64 (-1);
            p_interests = Array.make 64 0;
            p_revents = Array.make 64 0;
            p_n = 0;
            p_index = Hashtbl.create 64;
          }
  in
  { impl; interest = Hashtbl.create 64 }

let backend_name t =
  match t.impl with
  | I_epoll _ -> "epoll"
  | I_poll _ -> "poll"

let registered t fd = Hashtbl.mem t.interest (fd_int fd)

let poll_grow ps =
  if ps.p_n = Array.length ps.p_fds then begin
    let cap = 2 * Array.length ps.p_fds in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 ps.p_n;
      b
    in
    ps.p_fds <- grow ps.p_fds (-1);
    ps.p_interests <- grow ps.p_interests 0;
    ps.p_revents <- grow ps.p_revents 0
  end

let add t fd ~read ~write =
  let n = fd_int fd in
  if Hashtbl.mem t.interest n then
    invalid_arg (Printf.sprintf "Evloop.add: fd %d already registered" n);
  let b = bits ~read ~write in
  (match t.impl with
  | I_epoll ep -> epoll_ctl ep 0 n b
  | I_poll ps ->
      poll_grow ps;
      ps.p_fds.(ps.p_n) <- n;
      ps.p_interests.(ps.p_n) <- b;
      Hashtbl.replace ps.p_index n ps.p_n;
      ps.p_n <- ps.p_n + 1);
  Hashtbl.replace t.interest n b

let modify t fd ~read ~write =
  let n = fd_int fd in
  match Hashtbl.find_opt t.interest n with
  | None -> invalid_arg (Printf.sprintf "Evloop.modify: fd %d not registered" n)
  | Some cur ->
      let b = bits ~read ~write in
      if b <> cur then begin
        (match t.impl with
        | I_epoll ep -> epoll_ctl ep 1 n b
        | I_poll ps -> ps.p_interests.(Hashtbl.find ps.p_index n) <- b);
        Hashtbl.replace t.interest n b
      end

let remove t fd =
  let n = fd_int fd in
  if Hashtbl.mem t.interest n then begin
    Hashtbl.remove t.interest n;
    match t.impl with
    | I_epoll ep -> ( try epoll_ctl ep 2 n 0 with Unix.Unix_error _ -> ())
    | I_poll ps ->
        let slot = Hashtbl.find ps.p_index n in
        Hashtbl.remove ps.p_index n;
        let last = ps.p_n - 1 in
        if slot <> last then begin
          ps.p_fds.(slot) <- ps.p_fds.(last);
          ps.p_interests.(slot) <- ps.p_interests.(last);
          Hashtbl.replace ps.p_index ps.p_fds.(slot) slot
        end;
        ps.p_fds.(last) <- -1;
        ps.p_interests.(last) <- 0;
        ps.p_n <- last
  end

let timeout_ms timeout_s =
  if timeout_s < 0. then -1
  else if timeout_s = 0. then 0
  else max 1 (int_of_float (ceil (timeout_s *. 1000.)))

let wait t ~timeout_s =
  match t.impl with
  | I_epoll ep ->
      let evs = epoll_wait ep (timeout_ms timeout_s) in
      Array.fold_left
        (fun acc (n, b) ->
          {
            ev_fd = fd_of_int n;
            ev_read = b land bit_read <> 0;
            ev_write = b land bit_write <> 0;
          }
          :: acc)
        [] evs
  | I_poll ps ->
      let ready =
        poll_stub ps.p_fds ps.p_interests ps.p_revents ps.p_n
          (timeout_ms timeout_s)
      in
      if ready = 0 then []
      else begin
        let acc = ref [] in
        for i = ps.p_n - 1 downto 0 do
          let b = ps.p_revents.(i) in
          if b <> 0 then
            acc :=
              {
                ev_fd = fd_of_int ps.p_fds.(i);
                ev_read = b land bit_read <> 0;
                ev_write = b land bit_write <> 0;
              }
              :: !acc
        done;
        !acc
      end

(* One-shot writability probe through poll(2), so it works on any fd
   number — the daemon's reaper uses it in place of a zero-timeout
   [Unix.select], which fails for fds >= FD_SETSIZE. *)
let writable fd =
  let fds = [| fd_int fd |] in
  let interests = [| bit_write |] in
  let revents = [| 0 |] in
  match poll_stub fds interests revents 1 0 with
  | n -> n > 0 && revents.(0) land bit_write <> 0
  | exception Unix.Unix_error _ -> false

let close t =
  match t.impl with
  | I_epoll ep -> ( try Unix.close (fd_of_int ep) with Unix.Unix_error _ -> ())
  | I_poll _ -> ()

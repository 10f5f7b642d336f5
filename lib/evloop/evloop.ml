external fd_int : Unix.file_descr -> int = "%identity"
external fd_of_int : int -> Unix.file_descr = "%identity"

external poll_stub :
  int array -> int array -> int array -> int -> int -> int
  = "caml_im_evloop_poll"

external raise_nofile : int -> int = "caml_im_evloop_raise_nofile"

let raise_fd_limit n = raise_nofile n

(* Interest bits, mirrored in evloop_stubs.c. *)
let bit_read = 1
let bit_write = 2

let bits ~read ~write = (if read then bit_read else 0) lor (if write then bit_write else 0)

(* Parallel [fds]/[interests] packed in [0, n); [index] maps fd -> slot;
   removal swaps the last slot in, so the arrays never need a full
   rebuild. *)
type t = {
  mutable fds : int array;
  mutable interests : int array;
  mutable revents : int array;
  mutable n : int;
  index : (int, int) Hashtbl.t;
}

type event = {
  ev_fd : Unix.file_descr;
  ev_read : bool;
  ev_write : bool;
}

let create () =
  {
    fds = Array.make 64 (-1);
    interests = Array.make 64 0;
    revents = Array.make 64 0;
    n = 0;
    index = Hashtbl.create 64;
  }

let registered t fd = Hashtbl.mem t.index (fd_int fd)

let grow t =
  if t.n = Array.length t.fds then begin
    let cap = 2 * Array.length t.fds in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.n;
      b
    in
    t.fds <- grow t.fds (-1);
    t.interests <- grow t.interests 0;
    t.revents <- grow t.revents 0
  end

let add t fd ~read ~write =
  let n = fd_int fd in
  if Hashtbl.mem t.index n then
    invalid_arg (Printf.sprintf "Evloop.add: fd %d already registered" n);
  grow t;
  t.fds.(t.n) <- n;
  t.interests.(t.n) <- bits ~read ~write;
  Hashtbl.replace t.index n t.n;
  t.n <- t.n + 1

let modify t fd ~read ~write =
  let n = fd_int fd in
  match Hashtbl.find_opt t.index n with
  | None -> invalid_arg (Printf.sprintf "Evloop.modify: fd %d not registered" n)
  | Some slot -> t.interests.(slot) <- bits ~read ~write

let remove t fd =
  let n = fd_int fd in
  match Hashtbl.find_opt t.index n with
  | None -> ()
  | Some slot ->
      Hashtbl.remove t.index n;
      let last = t.n - 1 in
      if slot <> last then begin
        t.fds.(slot) <- t.fds.(last);
        t.interests.(slot) <- t.interests.(last);
        Hashtbl.replace t.index t.fds.(slot) slot
      end;
      t.fds.(last) <- -1;
      t.interests.(last) <- 0;
      t.n <- last

let timeout_ms timeout_s =
  if timeout_s < 0. then -1
  else if timeout_s = 0. then 0
  else max 1 (int_of_float (ceil (timeout_s *. 1000.)))

let wait t ~timeout_s =
  let ready = poll_stub t.fds t.interests t.revents t.n (timeout_ms timeout_s) in
  if ready = 0 then []
  else begin
    let acc = ref [] in
    for i = t.n - 1 downto 0 do
      let b = t.revents.(i) in
      if b <> 0 then
        acc :=
          {
            ev_fd = fd_of_int t.fds.(i);
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

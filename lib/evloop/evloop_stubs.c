/* C stubs for the readiness layer: poll(2), and an rlimit helper so
   callers can raise the open-file ceiling before opening fds past
   FD_SETSIZE.

   File descriptors cross the boundary as plain ints (on Unix the
   OCaml runtime represents Unix.file_descr as the fd integer; the
   OCaml side converts with "%identity"). The blocking poll releases
   the runtime lock so other domains keep running. */

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/threads.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <poll.h>
#include <sys/resource.h>

/* Interest bits shared with evloop.ml. */
#define IM_EV_READ 1
#define IM_EV_WRITE 2

/* ---- poll ---- */

/* fds and interests are parallel int arrays of length n; revents is a
   caller-allocated int array of the same length that receives the
   ready bits (0 = not ready). Returns the number of ready fds. The
   arrays are copied out before the runtime lock is released and
   copied back after it is reacquired, so the GC may move them while
   poll sleeps. */
CAMLprim value caml_im_evloop_poll(value fds, value interests, value revents,
                                   value n_val, value timeout_ms)
{
  CAMLparam5(fds, interests, revents, n_val, timeout_ms);
  int n = Int_val(n_val);
  struct pollfd *pfds;
  int ready, i;
  if (n < 0 || n > Wosize_val(fds) || n > Wosize_val(interests)
      || n > Wosize_val(revents))
    caml_invalid_argument("Evloop.poll: array lengths disagree");
  pfds = caml_stat_alloc(sizeof(struct pollfd) * (n == 0 ? 1 : n));
  for (i = 0; i < n; i++) {
    int interest = Int_val(Field(interests, i));
    pfds[i].fd = Int_val(Field(fds, i));
    pfds[i].events = 0;
    pfds[i].revents = 0;
    if (interest & IM_EV_READ) pfds[i].events |= POLLIN;
    if (interest & IM_EV_WRITE) pfds[i].events |= POLLOUT;
  }
  caml_release_runtime_system();
  ready = poll(pfds, n, Int_val(timeout_ms));
  caml_acquire_runtime_system();
  if (ready == -1) {
    int e = errno;
    caml_stat_free(pfds);
    if (e == EINTR) {
      for (i = 0; i < n; i++) Store_field(revents, i, Val_int(0));
      CAMLreturn(Val_int(0));
    }
    unix_error(e, "poll", Nothing);
  }
  for (i = 0; i < n; i++) {
    short re = pfds[i].revents;
    int bits = 0;
    if (re & (POLLIN | POLLPRI | POLLHUP | POLLERR | POLLNVAL))
      bits |= IM_EV_READ;
    if (re & (POLLOUT | POLLHUP | POLLERR | POLLNVAL)) bits |= IM_EV_WRITE;
    Store_field(revents, i, Val_int(bits));
  }
  caml_stat_free(pfds);
  CAMLreturn(Val_int(ready));
}

/* ---- rlimit ---- */

/* Raise RLIMIT_NOFILE's soft limit toward [target] (clamped to the
   hard limit); returns the soft limit in effect afterwards. Never
   fails: a refused setrlimit just reports the unchanged limit. */
CAMLprim value caml_im_evloop_raise_nofile(value target)
{
  struct rlimit rl;
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return Val_int(1024);
  if ((rlim_t)Long_val(target) > rl.rlim_cur) {
    rlim_t want = (rlim_t)Long_val(target);
    struct rlimit next = rl;
    next.rlim_cur = (rl.rlim_max != RLIM_INFINITY && want > rl.rlim_max)
                        ? rl.rlim_max
                        : want;
    if (setrlimit(RLIMIT_NOFILE, &next) == 0) rl = next;
  }
  if (rl.rlim_cur == RLIM_INFINITY || rl.rlim_cur > 1 << 30)
    return Val_int(1 << 30);
  return Val_int((int)rl.rlim_cur);
}

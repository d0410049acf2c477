(** The measured window of one round and its phases.

    A round warms up, then measures for its share of [Opts.seconds]. A
    plain run spends the whole window in the [plain] phase. A traced run
    alternates [plain] and [traced] slices of [slice_s], so the
    throughput of the two modes is compared interleaved rather than
    before/after. Time is accounted per phase, summed over rounds;
    workers attribute each operation to the phase they read when starting
    it. *)

(* Length of one plain or traced slice in a traced run. *)
let slice_s = 0.25

let warmup = 0
let plain = 1
let traced = 2
let stopped = 3

type t = {
  trace : bool; (* alternate plain and traced slices *)
  phase : int Atomic.t;
  mutable length : float; (* this round's window, seconds *)
  mutable opened : int; (* ns *)
  mutable slice_start : int;
  time : float array; (* seconds spent per phase, all rounds *)
}

let create ~trace =
  { trace; phase = Atomic.make warmup; length = 0.0; opened = 0; slice_start = 0;
    time = Array.make 4 0.0 }

let phase t = Atomic.get t.phase

(** Back to warm-up for the next round. *)
let reset t = Atomic.set t.phase warmup

(** Open a window of [seconds]; in a traced run, [traced_first] picks
    which kind of slice comes first (alternate it between rounds). *)
let open_ t ~seconds ~traced_first =
  let now = Clock.now_ns () in
  t.length <- seconds;
  t.opened <- now;
  t.slice_start <- now;
  Atomic.set t.phase (if t.trace && traced_first then traced else plain)

let switch t now next =
  let ph = Atomic.get t.phase in
  t.time.(ph) <- t.time.(ph) +. (float_of_int (now - t.slice_start) *. 1e-9);
  t.slice_start <- now;
  Atomic.set t.phase next

(** Advance the window at time [now]: close it once its length has
    passed, and flip between plain and traced slices in a traced run.
    False once the window is closed. *)
let tick t now =
  if float_of_int (now - t.opened) *. 1e-9 >= t.length then begin
    switch t now stopped;
    false
  end
  else begin
    (if t.trace && float_of_int (now - t.slice_start) *. 1e-9 >= slice_s
     then switch t now (if Atomic.get t.phase = plain then traced else plain));
    true
  end

let seconds t ph = t.time.(ph)

(** SplitMix-style pseudo-random number generator on native ints.

    Each thread of a benchmark owns an independent generator seeded from a
    master seed and the thread id, so runs are reproducible and there is no
    shared RNG state to contend on.

    The state is an unboxed OCaml [int] (63 bits) mixed SplitMix-fashion
    (add an odd gamma, then xor-shift-multiply avalanche, with the
    multiplies wrapping mod 2^63). An [int64] state would box on every
    step in non-flambda builds — ~6 GC words per draw — which is exactly
    the allocation the zero-allocation read path's telemetry would then
    misattribute to the structures under test. The int variant draws
    nothing from the GC. *)

type t = { mutable state : int }

(* Odd 61-bit gamma (golden-ratio-derived, as in SplitMix64 but truncated
   to fit a native int literal). *)
let gamma = 0x1E3779B97F4A7C15

(* Odd avalanche multipliers (SplitMix64's, truncated to native int). *)
let mult1 = 0x3F58476D1CE4E5B9
let mult2 = 0x14D049BB133111EB

(* SplitMix's finalizer: xor-shift-multiply avalanche of a state word. *)
let[@inline] mix s =
  let z = (s lxor (s lsr 30)) * mult1 in
  let z = (z lxor (z lsr 27)) * mult2 in
  z lxor (z lsr 31)

let create seed = { state = seed }

(** Derive a stream for thread [tid] from a master [seed]. The start
    state goes through the finalizer: a bare [seed + gamma * (tid + 1)]
    would make stream [tid + 1] stream [tid] shifted by one draw, since
    every draw adds [gamma]. *)
let split ~seed ~tid = { state = mix (seed + (gamma * (tid + 1))) }

(** [next_int t] is a uniformly distributed non-negative OCaml int. *)
let next_int t =
  let s = t.state + gamma in
  t.state <- s;
  mix s land max_int

(** [below t n] is uniform in [0, n). Requires [n > 0]. *)
let below t n =
  assert (n > 0);
  next_int t mod n

(** [float t] is uniform in [0, 1). *)
let float t = Stdlib.float_of_int (next_int t) *. 0x1p-62

(** [bool t] is a fair coin flip. *)
let bool t = next_int t land 1 = 1

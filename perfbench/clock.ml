(** Nanosecond timing and order statistics over raw samples.

    Timestamps come from [Monotonic_clock.now] (CLOCK_MONOTONIC, no
    allocation); percentiles are read off the sorted raw values, never
    off a bucketed histogram. *)

let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(** CPU seconds the whole process has run, all domains, user and system. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** [percentile sorted p] is the nearest-rank [p]-th percentile of an
    ascending array; 0 for an empty one. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(** The first [n] values of each buffer, merged and sorted ascending. *)
let sorted_prefixes bufs =
  let all = Array.concat (List.map (fun (a, n) -> Array.sub a 0 n) bufs) in
  Array.sort compare all;
  all

(** Nearest-rank [p]-th percentile of a list of floats; 0 for an empty one. *)
let percentile_float l p =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

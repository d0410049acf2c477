(** What a run accumulates over its rounds, and the end-to-end metrics
    derived from it.

    Each round measures a fresh structure. Only the rounds in which the
    benchmark's busy domains got their CPUs count towards the end-to-end
    metrics: those whose [cpu_share] is at least [steady_share] of the
    run's 75th-percentile share. A round in which another process took a
    CPU measures a different workload (on bst-churn one worker then runs
    alone and its operations get cheaper, so latency drops while waste
    doubles).

    Over those rounds, throughput and latency are either the favourable
    quartile of their per-round values (the 75th percentile of per-round
    throughput, the 25th of per-round latencies) or their median, as the
    workload picks. With the quartile, rounds slowed by other tenants of
    the host without losing CPU time (CPU steal bursts lasting tens of
    seconds stretch kv-text's round-trip p99 from 0.24 ms to several ms)
    fall in the other tail, while a slowdown of the program itself moves
    most rounds and so the quartile. The median is the steadier choice
    where rounds spread widely of themselves (bst-churn, see bst_load.ml).
    [wasted_avg] is the mean of their wasted-memory samples, and [setup_s]
    the median of every round's set-up time. *)

type round = {
  setup_s : float;
  ops_per_s : float;  (** plain phase *)
  lat : int array;  (** plain-phase latency samples, ns, sorted *)
  wasted_sum : float;
  wasted_n : int;
  cpu_share : float;
      (** CPU time the process got in the window over what its busy
          domains could use: below 1 when others took the CPUs *)
}

type t = {
  mutable rounds : round list; (* newest first *)
  mutable problems : string list; (* failed output checks *)
  mutable attempted : int; (* operations (BST workloads) or commands (kv-text) measured *)
  mutable failed : int;
  mutable plain : int; (* of [attempted], those in plain slices *)
  mutable traced : int;
  mutable counts : Layers.counts;
}

(** Rounds in a run of [seconds] made of rounds of about [round_s]. *)
let count ~seconds ~round_s = max 1 (int_of_float (Float.round (seconds /. round_s)))

let create () =
  { rounds = []; problems = []; attempted = 0; failed = 0; plain = 0; traced = 0;
    counts = Layers.no_counts }

let check t problems = t.problems <- t.problems @ problems

(** The checks every structure passes after a round: [SET.check], the
    expected key count, and no use-after-free access. *)
let set_problems (type a) (module S : Dstruct.Set_intf.SET with type t = a) (s : a) ~expected
    ~what =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := (what ^ ": " ^ m) :: !problems) fmt in
  (try S.check s with Failure msg -> fail "SET.check: %s" msg);
  if S.size s <> expected then fail "size %d, expected %d" (S.size s) expected;
  if S.violations s <> 0 then fail "%d use-after-free accesses" (S.violations s);
  List.rev !problems

let us ns = float_of_int ns /. 1000.0

(** Record round [index] and report it on stderr. *)
let add t ~index r =
  t.rounds <- r :: t.rounds;
  Printf.eprintf
    "round %2d  setup %.4f s  %.0f ops/s  p50 %.2f us  p99 %.2f us  wasted %.1f  cpu %.3f\n%!"
    index r.setup_s r.ops_per_s
    (us (Clock.percentile r.lat 50.0))
    (us (Clock.percentile r.lat 99.0))
    (Report.ratio r.wasted_sum (float_of_int r.wasted_n))
    r.cpu_share

(** Every latency sample of the run, sorted. *)
let all_lat t = Clock.sorted_prefixes (List.map (fun r -> (r.lat, Array.length r.lat)) t.rounds)

let wasted_samples t = List.fold_left (fun a r -> a + r.wasted_n) 0 t.rounds

(* A round is steady when its CPU share reaches this fraction of the
   run's 75th-percentile share; at least a quarter of the rounds are. *)
let steady_share = 0.9

let steady_rounds t =
  let cut = steady_share *. Clock.percentile_float (List.map (fun r -> r.cpu_share) t.rounds) 75.0 in
  List.filter (fun r -> r.cpu_share >= cut) t.rounds

(** How the steady rounds' throughputs and latencies combine. *)
type pick =
  | Favourable_quartile  (** 75th percentile of throughput, 25th of latencies *)
  | Median

let end_to_end t ~pick =
  let steady = steady_rounds t in
  let quartile rounds p f = Clock.percentile_float (List.map f rounds) p in
  let high, low = match pick with Favourable_quartile -> (75.0, 25.0) | Median -> (50.0, 50.0) in
  let best_high = quartile steady high and best_low = quartile steady low in
  let wasted = List.fold_left (fun a r -> a +. r.wasted_sum) 0.0 steady in
  let wasted_n = List.fold_left (fun a r -> a + r.wasted_n) 0 steady in
  [
    Report.metric "ops_per_s" "1/s" (best_high (fun r -> r.ops_per_s));
    Report.metric "lat_p50_us" "us" (best_low (fun r -> us (Clock.percentile r.lat 50.0)));
    Report.metric "lat_p99_us" "us" (best_low (fun r -> us (Clock.percentile r.lat 99.0)));
    Report.metric "wasted_avg" "nodes" (Report.ratio wasted (float_of_int wasted_n));
    Report.metric "setup_s" "s" (quartile t.rounds 50.0 (fun r -> r.setup_s));
  ]

(** Fill the fields every traced run reports alike: the layer counters,
    the tail latency and the tracing overhead. *)
let layers t (w : Window.t) fields =
  let rate ops ph = Report.ratio (float_of_int ops) (Window.seconds w ph) in
  let lat = all_lat t in
  Layers.of_counts t.counts
    {
      fields with
      Layers.lat_p999_us = us (Clock.percentile lat 99.9);
      lat_samples = Array.length lat;
      overhead_frac =
        1.0 -. Report.ratio (rate t.traced Window.traced) (rate t.plain Window.plain);
    }

let stamp t (w : Window.t) =
  [
    ("rounds", string_of_int (List.length t.rounds));
    ("steady_rounds", string_of_int (List.length (steady_rounds t)));
    ("lat_samples", string_of_int (Array.length (all_lat t)));
    ("wasted_samples", string_of_int (wasted_samples t));
    ("plain_s", Report.json_number (Window.seconds w Window.plain));
    ("traced_s", Report.json_number (Window.seconds w Window.traced));
  ]

let result t ~metrics ~stamp =
  { Report.correct = t.problems = []; attempted = t.attempted; failed = t.failed; metrics; stamp;
    problems = t.problems }

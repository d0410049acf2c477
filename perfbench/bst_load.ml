(** The [bst-read] and [bst-churn] workloads: the Natarajan–Mittal BST
    over margin pointers, driven through [Dstruct.Set_intf.SET] by two
    closed-loop worker domains, each replaying its own pre-generated
    operation stream. *)

module Config = Smr_core.Config
module Rng = Mp_util.Rng
module Gcstat = Mp_util.Gcstat
module Set = Dstruct.Nm_bst.Make (Mp.Margin_ptr)

type spec = {
  name : string;
  init_size : int;  (** S: keys present after set-up *)
  read_pct : int;
  insert_pct : int;  (** the rest of the mix removes *)
  threads : int;
  prog_len : int;  (** operations per worker stream, replayed cyclically *)
  round_s : float;  (** measured seconds per round; each round has a fresh structure *)
  warmup_s : float;  (** per round, before its window opens *)
  pick : Rounds.pick;  (** how rounds combine into the end-to-end metrics *)
}

let threads = 2

let bst_read =
  { name = "bst-read"; init_size = 65536; read_pct = 90; insert_pct = 5; threads;
    prog_len = 1 lsl 18; round_s = 2.5; warmup_s = 0.2; pick = Rounds.Favourable_quartile }

(* The two workers contend on one small tree, and how they interleave
   differs from round to round: per-round p99 spreads by about 12% even on
   an idle host, and the fast tail holds the rounds in which one worker
   ran alone for a while. The median of such rounds is steadier than
   their quartile. *)
let bst_churn =
  { name = "bst-churn"; init_size = 1024; read_pct = 0; insert_pct = 50; threads;
    prog_len = 1 lsl 17; round_s = 0.25; warmup_s = 0.05; pick = Rounds.Median }

let key_range spec = 2 * spec.init_size

(* bench/main.ml's [margin_for ~gaps:128]: 128 gaps of the prefilled
   tree's average key spacing in index space (about 2^22 for S = 2^16). *)
let margin spec = max (1 lsl 17) (0xFFFF_FFFF / (2 * spec.init_size) * 128)

(* Live nodes (up to the key range, doubled for routing nodes) plus
   headroom for retired-but-unreclaimed ones. *)
let capacity spec = (key_range spec * 2) + 1024 + (spec.threads * 65536)

let op_contains = 0
let op_insert = 1
let op_remove = 2

(* Latency is sampled on one operation in [sample_every]. *)
let sample_every = 16
let lat_capacity = 1 lsl 17 (* per worker and round *)

(* Operations each worker runs in the use-after-free check pass. *)
let check_ops = 1 lsl 16

(* -- inputs -------------------------------------------------------------- *)

type inputs = {
  prefill : int array;  (** S distinct keys, in insertion order *)
  progs : int array array;  (** per worker: [key lsl 2 lor op] *)
}

(* Round [round]'s inputs: its own prefill and operation streams. *)
let generate spec ~seed ~round =
  let range = key_range spec in
  let stream i = Streams.stream ~seed ((round * (spec.threads + 1)) + i) in
  let prog tid =
    let rng = stream tid in
    Array.init spec.prog_len (fun _ ->
        let r = Rng.below rng 100 in
        let op =
          if r < spec.read_pct then op_contains
          else if r < spec.read_pct + spec.insert_pct then op_insert
          else op_remove
        in
        (Rng.below rng range lsl 2) lor op)
  in
  { prefill = Streams.distinct (stream spec.threads) ~range ~n:spec.init_size;
    progs = Array.init spec.threads prog }

(* -- set-up -------------------------------------------------------------- *)

let build spec inputs ~check_access =
  let config = Config.with_margin (Config.default ~threads:spec.threads) (margin spec) in
  let t = Set.create ~threads:spec.threads ~capacity:(capacity spec) ~check_access config in
  let s = Set.session t ~tid:0 in
  Array.iter
    (fun k -> if not (Set.insert s ~key:k ~value:k) then failwith "prefill: key inserted twice")
    inputs.prefill;
  Set.flush s;
  t

(* -- workers ------------------------------------------------------------- *)

type worker_out = {
  ops : int array;  (** operations started per phase *)
  failed : int;  (** measured operations refused by pool exhaustion *)
  inserted : int;  (** successful inserts, every phase *)
  removed : int;  (** successful removes, every phase *)
  lat : int array;  (** sampled plain-phase latencies, ns *)
  lat_n : int;
  gc_words : float;  (** words this domain allocated in the window *)
}

let span_of_op op =
  if op = op_contains then Spans.Contains else if op = op_insert then Spans.Insert else Spans.Remove

let[@inline] exec s op key =
  if op = op_contains then Set.contains s key
  else if op = op_insert then Set.insert s ~key ~value:key
  else Set.remove s key

(* Replay [prog] cyclically until [phase] reads [Window.stopped] (or, with
   [limit], for exactly [limit] operations). Sampled operations are timed
   into [lat] in the plain phase and recorded as spans in the traced
   one. *)
let worker t prog ~tid ~threads ~ready ~phase ~spans ?limit () =
  let s = Set.session t ~tid in
  let mask = Array.length prog - 1 in
  let lat = Array.make (if limit = None then lat_capacity else 0) 0 in
  let ops = Array.make 4 0 in
  let lat_n = ref 0 and failed = ref 0 and inserted = ref 0 and removed = ref 0 in
  let gc0 = ref Gcstat.zero and measuring = ref false in
  let limit = Option.value limit ~default:max_int in
  Atomic.incr ready;
  while Atomic.get ready < threads do
    Domain.cpu_relax ()
  done;
  let i = ref 0 in
  let ph = ref (Atomic.get phase) in
  while !ph < Window.stopped && !i < limit do
    if !ph > Window.warmup && not !measuring then begin
      measuring := true;
      gc0 := Gcstat.sample ()
    end;
    let x = prog.(!i land mask) in
    let key = x lsr 2 and op = x land 3 in
    let sampled = !ph > Window.warmup && !i land (sample_every - 1) = 0 in
    let t0 = if sampled then Clock.now_ns () else 0 in
    (match exec s op key with
    | true -> if op = op_insert then incr inserted else if op = op_remove then incr removed
    | false -> ()
    | exception Mempool.Exhausted -> if !ph > Window.warmup then incr failed);
    if sampled then begin
      let t1 = Clock.now_ns () in
      if !ph = Window.plain then begin
        if !lat_n < Array.length lat then begin
          lat.(!lat_n) <- t1 - t0;
          incr lat_n
        end
      end
      else
        ignore
          (Spans.record spans (span_of_op op) ~start:t0 ~stop:t1 ~parent:(-1)
             ~req:((!i * 2) + tid)
            : int)
    end;
    ops.(!ph) <- ops.(!ph) + 1;
    incr i;
    ph := Atomic.get phase
  done;
  let gc_words =
    if !measuring then Gcstat.alloc_words ~before:!gc0 ~after:(Gcstat.sample ()) else 0.0
  in
  { ops; failed = !failed; inserted = !inserted; removed = !removed; lat; lat_n = !lat_n;
    gc_words }

(* [rings.(tid)] receives worker [tid]'s spans; one ring per tid serves
   every round, each round's worker domain owning it in turn. *)
let spawn_workers spec inputs t ~phase ~rings ?limit () =
  let ready = Atomic.make 0 in
  Array.init spec.threads (fun tid ->
      Domain.spawn
        (worker t inputs.progs.(tid) ~tid ~threads:spec.threads ~ready ~phase ~spans:rings.(tid)
           ?limit))

(* -- checks -------------------------------------------------------------- *)

(* Structural invariants plus key-count conservation:
   final size = prefill + successful inserts - successful removes. *)
let check_structure spec t outs ~what =
  let ins = Array.fold_left (fun a o -> a + o.inserted) 0 outs in
  let rem = Array.fold_left (fun a o -> a + o.removed) 0 outs in
  Rounds.set_problems (module Set) t ~expected:(spec.init_size + ins - rem)
    ~what:(Printf.sprintf "%s (prefill %d + inserts %d - removes %d)" what spec.init_size ins rem)

(* A fresh structure with the pool's use-after-free detector armed, run
   for [check_ops] operations per worker on the same inputs. Untimed. *)
let uaf_pass spec inputs =
  let t = build spec inputs ~check_access:true in
  let phase = Atomic.make Window.plain in
  let rings = Array.init spec.threads (fun tid -> Spans.create ~owner:tid ~capacity:1) in
  let outs =
    Array.map Domain.join (spawn_workers spec inputs t ~phase ~rings ~limit:check_ops ())
  in
  check_structure spec t outs ~what:"check pass"

(* -- the run ------------------------------------------------------------- *)

let run spec (opts : Opts.t) =
  let w = Window.create ~trace:opts.trace in
  let tally = Rounds.create () in
  let rounds = Rounds.count ~seconds:opts.seconds ~round_s:spec.round_s in
  let round_s = opts.seconds /. float_of_int rounds in
  let rings =
    Array.init spec.threads (fun tid ->
        Spans.create ~owner:tid ~capacity:(if opts.trace then 1 lsl 17 else 1))
  in
  let gen_s = ref 0.0 and gc_words = ref 0.0 in
  for r = 0 to rounds - 1 do
    let t_gen = Clock.now_ns () in
    let inputs = generate spec ~seed:opts.seed ~round:r in
    gen_s := !gen_s +. Clock.seconds_since t_gen;
    Gc.full_major ();
    let t_setup = Clock.now_ns () in
    let t = build spec inputs ~check_access:false in
    let setup_s = Clock.seconds_since t_setup in
    Window.reset w;
    let workers = spawn_workers spec inputs t ~phase:w.Window.phase ~rings () in
    Unix.sleepf spec.warmup_s;
    let before = Layers.snapshot (module Set) t in
    let plain_s = Window.seconds w Window.plain in
    Window.open_ w ~seconds:round_s ~traced_first:(r land 1 = 1);
    let cpu0 = Clock.cpu_s () and wall0 = Clock.now_ns () in
    (* The main domain only samples wasted memory, every 2 ms. *)
    let wasted_sum = ref 0.0 and wasted_n = ref 0 in
    while
      Unix.sleepf 0.002;
      wasted_sum := !wasted_sum +. float_of_int (Set.smr_stats t).wasted;
      incr wasted_n;
      Window.tick w (Clock.now_ns ())
    do
      ()
    done;
    let cpu_share =
      Report.ratio (Clock.cpu_s () -. cpu0)
        (Clock.seconds_since wall0 *. float_of_int spec.threads)
    in
    let outs = Array.map Domain.join workers in
    let after = Layers.snapshot (module Set) t in
    Rounds.check tally (check_structure spec t outs ~what:(Printf.sprintf "round %d" r));
    let sum f = Array.fold_left (fun a o -> a + f o) 0 outs in
    let plain = sum (fun o -> o.ops.(Window.plain)) in
    let traced = sum (fun o -> o.ops.(Window.traced)) in
    tally.plain <- tally.plain + plain;
    tally.traced <- tally.traced + traced;
    tally.attempted <- tally.attempted + plain + traced;
    tally.failed <- tally.failed + sum (fun o -> o.failed);
    tally.counts <-
      Layers.add tally.counts ~before ~after ~ops:(plain + traced)
        ~live_peak:(Mempool.Core.live_peak (Set.pool t));
    gc_words := Array.fold_left (fun a o -> a +. o.gc_words) !gc_words outs;
    Rounds.add tally ~index:r
      {
        Rounds.setup_s;
        ops_per_s = Report.ratio (float_of_int plain) (Window.seconds w Window.plain -. plain_s);
        lat = Clock.sorted_prefixes (Array.to_list (Array.map (fun o -> (o.lat, o.lat_n)) outs));
        wasted_sum = !wasted_sum;
        wasted_n = !wasted_n;
        cpu_share;
      }
  done;
  Rounds.check tally (uaf_pass spec (generate spec ~seed:opts.seed ~round:0));
  let metrics =
    if not opts.trace then Rounds.end_to_end tally ~pick:spec.pick
    else begin
      let rings = Array.to_list rings in
      Spans.write_tsv (spec.name ^ ".spans.tsv") rings;
      let span_median nm = float_of_int (Clock.percentile (Spans.durations rings nm) 50.0) in
      Layers.to_metrics
        (Rounds.layers tally w
           {
             Layers.zero with
             contains_ns = span_median Spans.Contains;
             insert_ns = span_median Spans.Insert;
             remove_ns = span_median Spans.Remove;
             gc_words_per_op = Report.ratio !gc_words (float_of_int tally.attempted);
           })
    end
  in
  let stamp =
    [
      ("threads", string_of_int spec.threads);
      ("init_size", string_of_int spec.init_size);
      ("key_range", string_of_int (key_range spec));
      ("mix_read_insert_remove",
       Printf.sprintf "[%d, %d, %d]" spec.read_pct spec.insert_pct
         (100 - spec.read_pct - spec.insert_pct));
      ("margin", string_of_int (margin spec));
      ("round_warmup_s", Report.json_number spec.warmup_s);
      ("round_pick",
       Report.json_string
         (match spec.pick with Rounds.Median -> "median" | Favourable_quartile -> "favourable_quartile"));
      ("lat_sample_every", string_of_int sample_every);
      ("input_gen_s", Report.json_number !gen_s);
      ("spans", string_of_int (Array.fold_left (fun a r -> a + Spans.recorded r) 0 rings));
    ]
    @ Rounds.stamp tally w
  in
  Rounds.result tally ~metrics ~stamp

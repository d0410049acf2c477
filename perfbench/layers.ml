(** The per-layer metrics of a traced run, in report order.

    Every traced run reports every field. A layer the workload never
    reaches (the service stack on [bst-*]), or one it cannot observe from
    outside (per-call structure timings on [kv-text], whose calls run on
    the shard domain), reads 0. See README.md for which end-to-end metric
    each one should move, on which workload. *)

type t = {
  contains_ns : float;  (** median [SET.contains] call *)
  insert_ns : float;
  remove_ns : float;
  nodes_per_op : float;  (** [SET.traversed] per operation *)
  gc_words_per_op : float;  (** GC words the operating domains allocated *)
  fences_per_node : float;  (** paper Fig. 5 *)
  fences_per_op : float;
  hp_fallbacks_per_op : float;
  scan_ns_per_op : float;
  scan_passes_per_kop : float;
  reclaimed_per_retired : float;
  wasted_peak : int;
  allocs_per_op : float;
  live_peak : int;
  feed_ns_per_cmd : float;  (** [Parser.feed] of a batch's bytes *)
  pump_ns_per_cmd : float;  (** [Conn.pump]: parse, ring chain, shard, render *)
  parse_ns_per_cmd : float;  (** the same bytes through [Parser] alone *)
  frontend_gc_words_per_cmd : float;
  ops_per_batch : float;  (** SET operations per shard batch window *)
  spins_per_chain : float;
  backoffs_per_chain : float;
  lat_p999_us : float;
  lat_samples : int;
  overhead_frac : float;  (** ops/s lost by traced slices against plain ones *)
}

let zero =
  {
    contains_ns = 0.0; insert_ns = 0.0; remove_ns = 0.0; nodes_per_op = 0.0;
    gc_words_per_op = 0.0; fences_per_node = 0.0; fences_per_op = 0.0;
    hp_fallbacks_per_op = 0.0; scan_ns_per_op = 0.0; scan_passes_per_kop = 0.0;
    reclaimed_per_retired = 0.0; wasted_peak = 0; allocs_per_op = 0.0; live_peak = 0;
    feed_ns_per_cmd = 0.0; pump_ns_per_cmd = 0.0; parse_ns_per_cmd = 0.0;
    frontend_gc_words_per_cmd = 0.0; ops_per_batch = 0.0; spins_per_chain = 0.0;
    backoffs_per_chain = 0.0; lat_p999_us = 0.0; lat_samples = 0; overhead_frac = 0.0;
  }

(** A structure's work counters at one instant. *)
type snapshot = { smr : Smr_core.Smr_intf.stats; traversed : int; allocs : int }

let snapshot (type a) (module S : Dstruct.Set_intf.SET with type t = a) (t : a) =
  { smr = S.smr_stats t; traversed = S.traversed t; allocs = Mempool.Core.alloc_count (S.pool t) }

(** Work counted inside measured windows, summed over a run's rounds. *)
type counts = {
  ops : int;
  traversed : int;
  fences : int;
  hp_fallbacks : int;
  scan_ns : float;
  scan_passes : int;
  reclaimed : int;
  retired : int;
  allocs : int;
  peak_wasted : int;  (** highest of the rounds' high-water marks *)
  peak_live : int;
}

let no_counts =
  { ops = 0; traversed = 0; fences = 0; hp_fallbacks = 0; scan_ns = 0.0; scan_passes = 0;
    reclaimed = 0; retired = 0; allocs = 0; peak_wasted = 0; peak_live = 0 }

(** Add one round: [ops] operations ran between [before] and [after];
    [live_peak] is the round's pool high-water mark. *)
let add c ~(before : snapshot) ~(after : snapshot) ~ops ~live_peak =
  let open Smr_core.Smr_intf in
  let d f = f after.smr - f before.smr in
  {
    ops = c.ops + ops;
    traversed = c.traversed + after.traversed - before.traversed;
    fences = c.fences + d (fun s -> s.fences);
    hp_fallbacks = c.hp_fallbacks + d (fun s -> s.hp_fallbacks);
    scan_ns = c.scan_ns +. ((after.smr.scan_time_s -. before.smr.scan_time_s) *. 1e9);
    scan_passes = c.scan_passes + d (fun s -> s.scan_passes);
    reclaimed = c.reclaimed + d (fun s -> s.reclaimed);
    retired = c.retired + d (fun s -> s.retired_total);
    allocs = c.allocs + after.allocs - before.allocs;
    peak_wasted = max c.peak_wasted after.smr.wasted_peak;
    peak_live = max c.peak_live live_peak;
  }

(** Fill the structure, scheme and pool fields from [c]. *)
let of_counts c t =
  let per_op x = Report.ratio (float_of_int x) (float_of_int c.ops) in
  {
    t with
    nodes_per_op = per_op c.traversed;
    fences_per_node = Report.ratio (float_of_int c.fences) (float_of_int c.traversed);
    fences_per_op = per_op c.fences;
    hp_fallbacks_per_op = per_op c.hp_fallbacks;
    scan_ns_per_op = Report.ratio c.scan_ns (float_of_int c.ops);
    scan_passes_per_kop = per_op (1000 * c.scan_passes);
    reclaimed_per_retired = Report.ratio (float_of_int c.reclaimed) (float_of_int c.retired);
    wasted_peak = c.peak_wasted;
    allocs_per_op = per_op c.allocs;
    live_peak = c.peak_live;
  }

let to_metrics t =
  let m = Report.metric in
  [
    m "dstruct.contains_ns" "ns" t.contains_ns;
    m "dstruct.insert_ns" "ns" t.insert_ns;
    m "dstruct.remove_ns" "ns" t.remove_ns;
    m "dstruct.nodes_per_op" "nodes/op" t.nodes_per_op;
    m "dstruct.gc_words_per_op" "words/op" t.gc_words_per_op;
    m "mp.fences_per_node" "fences/node" t.fences_per_node;
    m "mp.fences_per_op" "fences/op" t.fences_per_op;
    m "mp.hp_fallbacks_per_op" "reads/op" t.hp_fallbacks_per_op;
    m "smr_core.scan_ns_per_op" "ns/op" t.scan_ns_per_op;
    m "smr_core.scan_passes_per_kop" "passes/kop" t.scan_passes_per_kop;
    m "smr_core.reclaimed_per_retired" "ratio" t.reclaimed_per_retired;
    Report.count "smr_core.wasted_peak" t.wasted_peak;
    m "mempool.allocs_per_op" "allocs/op" t.allocs_per_op;
    Report.count "mempool.live_peak" t.live_peak;
    m "frontend.feed_ns_per_cmd" "ns/cmd" t.feed_ns_per_cmd;
    m "frontend.pump_ns_per_cmd" "ns/cmd" t.pump_ns_per_cmd;
    m "frontend.parse_ns_per_cmd" "ns/cmd" t.parse_ns_per_cmd;
    m "frontend.gc_words_per_cmd" "words/cmd" t.frontend_gc_words_per_cmd;
    m "service.ops_per_batch" "ops/batch" t.ops_per_batch;
    m "request_ring.spins_per_chain" "spins/chain" t.spins_per_chain;
    m "request_ring.backoffs_per_chain" "sleeps/chain" t.backoffs_per_chain;
    m "lat_p999_us" "us" t.lat_p999_us;
    Report.count "lat_samples" t.lat_samples;
    m "trace.overhead_frac" "fraction" t.overhead_frac;
  ]

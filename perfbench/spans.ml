(** Span recorder for traced runs.

    A span is one timed call into a layer: its name, start and end
    (monotonic ns), the span that caused it and the request it belongs
    to. Each recording domain owns one preallocated ring, so recording
    allocates nothing and never contends; when a ring wraps, the oldest
    spans are overwritten. Rings are written out as TSV once the run has
    ended. *)

type name =
  | Contains
  | Insert
  | Remove
  | Roundtrip
  | Feed
  | Pump
  | Parse

let name_string = function
  | Contains -> "dstruct.contains"
  | Insert -> "dstruct.insert"
  | Remove -> "dstruct.remove"
  | Roundtrip -> "kv.roundtrip"
  | Feed -> "frontend.feed"
  | Pump -> "frontend.pump"
  | Parse -> "frontend.parse"

let names = [| Contains; Insert; Remove; Roundtrip; Feed; Pump; Parse |]

let code = function
  | Contains -> 0
  | Insert -> 1
  | Remove -> 2
  | Roundtrip -> 3
  | Feed -> 4
  | Pump -> 5
  | Parse -> 6

type t = {
  owner : int; (* span ids are [owner lsl 40 lor sequence number] *)
  mask : int;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  req : int array;
  mutable n : int; (* spans ever recorded *)
}

(** A ring of [capacity] spans (rounded up to a power of two). *)
let create ~owner ~capacity =
  let rec up c = if c >= capacity then c else up (2 * c) in
  let cap = up 1 in
  let a () = Array.make cap 0 in
  { owner; mask = cap - 1; name = a (); start = a (); stop = a (); parent = a ();
    req = a (); n = 0 }

(** Record a span and return its id ([parent] = -1 for a root). *)
let record t nm ~start ~stop ~parent ~req =
  let i = t.n land t.mask in
  t.name.(i) <- code nm;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- parent;
  t.req.(i) <- req;
  t.n <- t.n + 1;
  (t.owner lsl 40) lor (t.n - 1)

let recorded t = t.n

(* Ring positions still holding a span, oldest first. *)
let iter_kept t f =
  let kept = min t.n (t.mask + 1) in
  for s = t.n - kept to t.n - 1 do
    f s (s land t.mask)
  done

(** Durations (ns) of the kept spans named [nm], ascending. *)
let durations rings nm =
  let c = code nm in
  let acc = ref [] in
  List.iter
    (fun t ->
      iter_kept t (fun _ i -> if t.name.(i) = c then acc := (t.stop.(i) - t.start.(i)) :: !acc))
    rings;
  let a = Array.of_list !acc in
  Array.sort compare a;
  a

(** Directory, relative to the checkout, that traced runs write to. *)
let out_dir = ".perfbench_out"

(** Write every kept span to [out_dir/<file>], one TSV line each:
    [span name start_ns end_ns parent request]. *)
let write_tsv file rings =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let oc = open_out (Filename.concat out_dir file) in
  output_string oc "span\tname\tstart_ns\tend_ns\tparent\trequest\n";
  List.iter
    (fun t ->
      iter_kept t (fun s i ->
          Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" ((t.owner lsl 40) lor s)
            (name_string names.(t.name.(i)))
            t.start.(i) t.stop.(i) t.parent.(i) t.req.(i)))
    rings;
  close_out oc

(** What one workload run reports: the correctness verdict, the
    attempted/failed operation counts, named metrics with units, and the
    run's stamp (build, host and input description). *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  stamp : (string * string) list; (* key, already-encoded JSON value *)
  problems : string list; (* why [correct] is false *)
}

let metric name unit_ value = { name; value; unit_ }
let count name value = metric name "count" (float_of_int value)

(** [ratio a b] is [a /. b], or 0 when nothing was measured. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit as measured; JSON has no nan/inf, so those degrade to 0. *)
let json_number f =
  if Float.is_nan f || Float.abs f = Float.infinity then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let metrics_json ms =
  json_object
    (List.map
       (fun m ->
         (m.name, json_object [ ("value", json_number m.value); ("unit", json_string m.unit_) ]))
       ms)

(** The result line: exactly [correct], [attempted], [failed], [metrics]. *)
let to_json t =
  json_object
    [
      ("correct", string_of_bool t.correct);
      ("attempted", string_of_int t.attempted);
      ("failed", string_of_int t.failed);
      ("metrics", metrics_json t.metrics);
    ]

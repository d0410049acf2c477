(** The [kv-text] workload: memcached-text commands through
    [Mp_service.Frontend.Conn.pump] into one [Service] shard serving the
    hash table over margin pointers. One closed-loop client on the main
    domain sends pre-rendered 32-command batches; every reply is compared
    byte for byte with a sequential model, which is exact because one
    client and one shard execute commands in submission order. *)

module Config = Smr_core.Config
module Rng = Mp_util.Rng
module Service = Mp_service.Service
module Parser = Mp_service.Frontend.Parser
module Conn = Mp_service.Frontend.Conn

module Table =
  (val Mp_harness.Instances.make Mp_harness.Instances.Hash_ds Mp_harness.Instances.mp)

let name = "kv-text"
let init_size = 1024
let key_range = 2 * init_size
let zipf_alpha = 0.99
let get_pct = 98
let set_pct = 1 (* the rest deletes *)
let cmds_per_batch = 32
let batches = 256 (* distinct pre-rendered batches per round, replayed cyclically *)
let round_s = 0.25 (* measured seconds per round; each round has a fresh stack *)
let warmup_s = 0.05 (* per round, before its window opens *)
let shards = 1
let batch_window = 32
let ring_capacity = 1024
let capacity = (init_size * 4) + (shards * 65536)
let lat_capacity = 1 lsl 16 (* per round *)
let check_batches = 512 (* batches sent in the use-after-free check pass *)
let wasted_every = 8 (* sample wasted memory once per this many batches *)

let cmd_get = 0
let cmd_set = 1
let cmd_delete = 2

(* -- inputs -------------------------------------------------------------- *)

type inputs = {
  prefill : int array;
  kinds : int array;  (** [batches * cmds_per_batch] commands ... *)
  keys : int array;  (** ... and their keys *)
  wire : string array;  (** per batch: the commands' bytes *)
}

(* Round [round]'s inputs: its own prefill and command batches. *)
let generate ~seed ~round =
  let prefill =
    Streams.distinct (Streams.stream ~seed ((2 * round) + 1)) ~range:key_range ~n:init_size
  in
  let rng = Streams.stream ~seed (2 * round) in
  let zipf = Mp_util.Keygen.zipf ~range:key_range ~alpha:zipf_alpha in
  let n = batches * cmds_per_batch in
  let kinds =
    Array.init n (fun _ ->
        let r = Rng.below rng 100 in
        if r < get_pct then cmd_get else if r < get_pct + set_pct then cmd_set else cmd_delete)
  in
  let keys = Array.init n (fun _ -> Mp_util.Keygen.next zipf rng) in
  let wire =
    Array.init batches (fun b ->
        let buf = Buffer.create 512 in
        for c = b * cmds_per_batch to ((b + 1) * cmds_per_batch) - 1 do
          let k = string_of_int keys.(c) in
          if kinds.(c) = cmd_get then Printf.bprintf buf "get %s\r\n" k
          else if kinds.(c) = cmd_set then
            Printf.bprintf buf "set %s 0 0 %d\r\n%s\r\n" k (String.length k) k
          else Printf.bprintf buf "delete %s\r\n" k
        done;
        Buffer.contents buf)
  in
  { prefill; kinds; keys; wire }

(* -- the sequential model ------------------------------------------------ *)

type model = {
  present : bool array;
  hit : string array; (* a get's reply when the key is present *)
  mutable size : int;
}

let model inputs =
  let present = Array.make key_range false in
  Array.iter (fun k -> present.(k) <- true) inputs.prefill;
  let hit =
    Array.init key_range (fun k ->
        let s = string_of_int k in
        Printf.sprintf "VALUE %s 0 %d\r\n%s\r\nEND\r\n" s (String.length s) s)
  in
  { present; hit; size = init_size }

(* The model's reply to command [c], applying it. *)
let expect m inputs c =
  let k = inputs.keys.(c) in
  let kind = inputs.kinds.(c) in
  if kind = cmd_get then if m.present.(k) then m.hit.(k) else "END\r\n"
  else if kind = cmd_set then
    if m.present.(k) then "NOT_STORED\r\n"
    else begin
      m.present.(k) <- true;
      m.size <- m.size + 1;
      "STORED\r\n"
    end
  else if m.present.(k) then begin
    m.present.(k) <- false;
    m.size <- m.size - 1;
    "DELETED\r\n"
  end
  else "NOT_FOUND\r\n"

(* Does [out] hold exactly the model's replies to batch [b]? Compares in
   place, allocating nothing. *)
let check_batch m inputs out b =
  let pos = ref 0 and ok = ref true in
  let len = Buffer.length out in
  for c = b * cmds_per_batch to ((b + 1) * cmds_per_batch) - 1 do
    let e = expect m inputs c in
    let n = String.length e in
    if !ok then
      if !pos + n > len then ok := false
      else begin
        for i = 0 to n - 1 do
          if Buffer.nth out (!pos + i) <> String.unsafe_get e i then ok := false
        done;
        pos := !pos + n
      end
  done;
  !ok && !pos = len

(* Replies that report a failure: SERVER_ERROR, CLIENT_ERROR or ERROR. *)
let error_replies out =
  String.split_on_char '\n' (Buffer.contents out)
  |> List.filter (fun line ->
         List.exists
           (fun prefix -> String.starts_with ~prefix line)
           [ "ERROR"; "CLIENT_ERROR"; "SERVER_ERROR" ])
  |> List.length

(* -- set-up -------------------------------------------------------------- *)

type stack = { table : Table.t; service : Service.t; conn : Conn.t }

let start inputs ~check_access =
  let table =
    Table.create ~threads:shards ~capacity ~check_access (Config.default ~threads:shards)
  in
  let s = Table.session table ~tid:0 in
  Array.iter
    (fun k -> if not (Table.insert s ~key:k ~value:k) then failwith "prefill: key inserted twice")
    inputs.prefill;
  Table.flush s;
  let service =
    Service.create
      (module Table : Dstruct.Set_intf.SET with type t = Table.t)
      table ~shards ~batch:batch_window ~ring_capacity
  in
  Service.start service;
  { table; service; conn = Conn.create service }

(* -- the client ---------------------------------------------------------- *)

type client = {
  mutable sent : int; (* batches sent so far, every phase *)
  mutable mismatch : string option; (* first reply that differed from the model *)
  mutable failed : int; (* failure replies in measured batches *)
}

(* One round trip: feed batch [b]'s bytes, pump, then check the replies.
   Returns the feed/pump boundary timestamp and the pump's end. *)
let round_trip st m inputs (client : client) b ~measured =
  let p = Conn.parser st.conn in
  if not (Parser.feed p inputs.wire.(b)) then failwith "parser buffer too small for a batch";
  let t_fed = Clock.now_ns () in
  let n = Conn.pump st.conn in
  let t_done = Clock.now_ns () in
  let out = Conn.out st.conn in
  if n <> cmds_per_batch || not (check_batch m inputs out b) then begin
    if client.mismatch = None then
      client.mismatch <-
        Some
          (Printf.sprintf "batch %d: %d commands answered, replies %S" client.sent n
             (Buffer.contents out));
    if measured then client.failed <- client.failed + error_replies out
  end;
  client.sent <- client.sent + 1;
  (t_fed, t_done)

(* Every batch's bytes through a fresh [Parser] alone; the command count. *)
let parse_alone inputs =
  let p = Parser.create () in
  let cmds = ref 0 in
  Array.iter
    (fun w ->
      ignore (Parser.feed p w : bool);
      let rec drain () =
        match Parser.next p with
        | Some _ ->
          incr cmds;
          drain ()
        | None -> ()
      in
      drain ())
    inputs.wire;
  !cmds

let correctness_problems st m ~what (client : client) =
  Option.to_list (Option.map (fun s -> what ^ ": " ^ s) client.mismatch)
  @ Rounds.set_problems (module Table) st.table ~expected:m.size ~what

(* A fresh stack with the pool's use-after-free detector armed, sent
   [check_batches] batches. Untimed. *)
let uaf_pass inputs =
  let st = start inputs ~check_access:true in
  let m = model inputs in
  let client = { sent = 0; mismatch = None; failed = 0 } in
  for b = 0 to check_batches - 1 do
    ignore (round_trip st m inputs client (b mod batches) ~measured:false : int * int)
  done;
  Service.stop st.service;
  correctness_problems st m ~what:"check pass" client

(* -- the run ------------------------------------------------------------- *)

(* What a traced run adds up over its rounds. *)
type trace_tally = {
  mutable feed_ns : int;
  mutable pump_ns : int;
  mutable gc_words : float; (* allocated on the client inside feed + pump *)
  mutable chains : int;
  mutable spins : int;
  mutable backoffs : int;
  mutable shard_ops : int;
  mutable shard_batches : int;
}

let run (opts : Opts.t) =
  let w = Window.create ~trace:opts.trace in
  let tally = Rounds.create () in
  let rounds = Rounds.count ~seconds:opts.seconds ~round_s in
  let round_s = opts.seconds /. float_of_int rounds in
  let gen_s = ref 0.0 in
  let spans = Spans.create ~owner:0 ~capacity:(if opts.trace then 1 lsl 16 else 1) in
  let tt =
    { feed_ns = 0; pump_ns = 0; gc_words = 0.0; chains = 0; spins = 0; backoffs = 0;
      shard_ops = 0; shard_batches = 0 }
  in
  let lat = Array.make lat_capacity 0 in
  for r = 0 to rounds - 1 do
    let t_gen = Clock.now_ns () in
    let inputs = generate ~seed:opts.seed ~round:r in
    gen_s := !gen_s +. Clock.seconds_since t_gen;
    Gc.full_major ();
    let t_setup = Clock.now_ns () in
    let st = start inputs ~check_access:false in
    let setup_s = Clock.seconds_since t_setup in
    let m = model inputs in
    let client = { sent = 0; mismatch = None; failed = 0 } in
    let next () = client.sent mod batches in
    Window.reset w;
    let t_warm = Clock.now_ns () in
    while Clock.seconds_since t_warm < warmup_s do
      ignore (round_trip st m inputs client (next ()) ~measured:false : int * int)
    done;
    let before = Layers.snapshot (module Table) st.table in
    let svc0 = Service.stats st.service in
    let plain_s = Window.seconds w Window.plain in
    let lat_n = ref 0 and sent = Array.make 4 0 in
    let wasted_sum = ref 0.0 and wasted_n = ref 0 in
    Window.open_ w ~seconds:round_s ~traced_first:(r land 1 = 1);
    let cpu0 = Clock.cpu_s () and wall0 = Clock.now_ns () in
    let ph = ref (Window.phase w) in
    while !ph < Window.stopped do
      let b = next () in
      let seq = client.sent in
      if !ph = Window.traced then begin
        let w0 = Gc.minor_words () in
        let t0 = Clock.now_ns () in
        let t_fed, t1 = round_trip st m inputs client b ~measured:true in
        tt.gc_words <- tt.gc_words +. (Gc.minor_words () -. w0);
        tt.feed_ns <- tt.feed_ns + (t_fed - t0);
        tt.pump_ns <- tt.pump_ns + (t1 - t_fed);
        let req = (r lsl 32) lor seq in
        let root = Spans.record spans Spans.Roundtrip ~start:t0 ~stop:t1 ~parent:(-1) ~req in
        ignore (Spans.record spans Spans.Feed ~start:t0 ~stop:t_fed ~parent:root ~req : int);
        ignore (Spans.record spans Spans.Pump ~start:t_fed ~stop:t1 ~parent:root ~req : int)
      end
      else begin
        let t0 = Clock.now_ns () in
        let _, t1 = round_trip st m inputs client b ~measured:true in
        if !lat_n < lat_capacity then begin
          lat.(!lat_n) <- t1 - t0;
          incr lat_n
        end
      end;
      sent.(!ph) <- sent.(!ph) + 1;
      if seq mod wasted_every = 0 then begin
        wasted_sum := !wasted_sum +. float_of_int (Table.smr_stats st.table).wasted;
        incr wasted_n
      end;
      ignore (Window.tick w (Clock.now_ns ()) : bool);
      ph := Window.phase w
    done;
    (* Two busy domains: the client (this one) and the shard. *)
    let cpu_share = Report.ratio (Clock.cpu_s () -. cpu0) (Clock.seconds_since wall0 *. 2.0) in
    let after = Layers.snapshot (module Table) st.table in
    let svc1 = Service.stats st.service in
    Service.stop st.service;
    let final = Service.stats st.service in
    Rounds.check tally (correctness_problems st m ~what:(Printf.sprintf "round %d" r) client);
    let plain = sent.(Window.plain) * cmds_per_batch in
    let traced = sent.(Window.traced) * cmds_per_batch in
    tally.plain <- tally.plain + plain;
    tally.traced <- tally.traced + traced;
    tally.attempted <- tally.attempted + plain + traced;
    tally.failed <- tally.failed + client.failed;
    tally.counts <-
      Layers.add tally.counts ~before ~after ~ops:(plain + traced)
        ~live_peak:(Mempool.Core.live_peak (Table.pool st.table));
    tt.chains <- tt.chains + sent.(Window.plain) + sent.(Window.traced);
    tt.spins <- tt.spins + svc1.Service.client_spins - svc0.Service.client_spins;
    tt.backoffs <- tt.backoffs + svc1.Service.client_backoffs - svc0.Service.client_backoffs;
    tt.shard_ops <- tt.shard_ops + final.Service.ops;
    tt.shard_batches <- tt.shard_batches + final.Service.batches;
    Rounds.add tally ~index:r
      {
        Rounds.setup_s;
        ops_per_s = Report.ratio (float_of_int plain) (Window.seconds w Window.plain -. plain_s);
        lat = Clock.sorted_prefixes [ (lat, !lat_n) ];
        wasted_sum = !wasted_sum;
        wasted_n = !wasted_n;
        cpu_share;
      }
  done;
  let inputs = generate ~seed:opts.seed ~round:0 in
  Rounds.check tally (uaf_pass inputs);
  let metrics =
    if not opts.trace then Rounds.end_to_end tally ~pick:Rounds.Favourable_quartile
    else begin
      (* The parser alone, on round 0's bytes, for at least 0.2 s. *)
      let parse_cmds = ref 0 and parse_ns = ref 0 and pass = ref 0 in
      while !parse_ns < 200_000_000 do
        let t0 = Clock.now_ns () in
        parse_cmds := !parse_cmds + parse_alone inputs;
        let t1 = Clock.now_ns () in
        ignore (Spans.record spans Spans.Parse ~start:t0 ~stop:t1 ~parent:(-1) ~req:!pass : int);
        incr pass;
        parse_ns := !parse_ns + (t1 - t0)
      done;
      Spans.write_tsv (name ^ ".spans.tsv") [ spans ];
      let per_cmd x = Report.ratio x (float_of_int tally.traced) in
      let per_chain x = Report.ratio (float_of_int x) (float_of_int tt.chains) in
      Layers.to_metrics
        (Rounds.layers tally w
           {
             Layers.zero with
             feed_ns_per_cmd = per_cmd (float_of_int tt.feed_ns);
             pump_ns_per_cmd = per_cmd (float_of_int tt.pump_ns);
             parse_ns_per_cmd = Report.ratio (float_of_int !parse_ns) (float_of_int !parse_cmds);
             frontend_gc_words_per_cmd = per_cmd tt.gc_words;
             ops_per_batch =
               Report.ratio (float_of_int tt.shard_ops) (float_of_int tt.shard_batches);
             spins_per_chain = per_chain tt.spins;
             backoffs_per_chain = per_chain tt.backoffs;
           })
    end
  in
  let stamp =
    [
      ("shards", string_of_int shards);
      ("batch_window", string_of_int batch_window);
      ("ring_capacity", string_of_int ring_capacity);
      ("cmds_per_pump", string_of_int cmds_per_batch);
      ("init_size", string_of_int init_size);
      ("key_range", string_of_int key_range);
      ("zipf_alpha", Report.json_number zipf_alpha);
      ("mix_get_set_delete",
       Printf.sprintf "[%d, %d, %d]" get_pct set_pct (100 - get_pct - set_pct));
      ("round_warmup_s", Report.json_number warmup_s);
      ("input_gen_s", Report.json_number !gen_s);
      ("spans", string_of_int (Spans.recorded spans));
    ]
    @ Rounds.stamp tally w
  in
  Rounds.result tally ~metrics ~stamp

(* Elastic multi-arena mempool: arena-id packing, the online
   attach/detach lifecycle, the SMR detach barrier blocking while a
   reader pins an arena and completing once it lets go (per scheme), and
   a randomized spike → grow → crash → adopt → shrink scenario with
   exact slot conservation. *)

module Config = Smr_core.Config
module Core = Mempool.Core
module Fault = Mp_util.Fault

(* -- arena/offset packing ------------------------------------------------- *)

let arena_pack_roundtrip =
  QCheck.Test.make ~name:"arena id pack/unpack roundtrip" ~count:1000
    QCheck.(triple (int_range 1 20) (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (off_bits, arena, offset) ->
      let offset = offset land ((1 lsl off_bits) - 1) in
      let max_arenas = Handle.max_arenas_for ~off_bits ~arena_slots:(1 lsl off_bits) in
      QCheck.assume (max_arenas > 0);
      let arena = arena mod max_arenas in
      let id = Handle.id_of_arena ~off_bits ~arena ~offset in
      Handle.arena_of_id ~off_bits id = arena
      && Handle.offset_of_id ~off_bits id = offset
      && id >= 0 && id <= Handle.max_id)

(* Every id of every admissible arena stays inside the 32-bit node-id
   field a handle can carry — the property max_arenas_for is for. *)
let max_arenas_fits =
  QCheck.Test.make ~name:"max_arenas_for keeps the last id packable" ~count:500
    QCheck.(int_range 1 24)
    (fun off_bits ->
      let arena_slots = 1 lsl off_bits in
      let n = Handle.max_arenas_for ~off_bits ~arena_slots in
      n > 0
      && Handle.id_of_arena ~off_bits ~arena:(n - 1) ~offset:(arena_slots - 1)
         <= Handle.max_id
      (* one more arena would overflow *)
      && (n lsl off_bits) + arena_slots - 1 > Handle.max_id)

let off_bits_is_minimal () =
  List.iter
    (fun (capacity, expect) ->
      let p = Core.create ~capacity ~threads:1 () in
      Alcotest.(check int)
        (Printf.sprintf "off_bits for capacity %d" capacity)
        expect (Core.off_bits p))
    [ (1, 0); (2, 1); (3, 2); (64, 6); (65, 7); (4096, 12) ]

(* -- attach/detach lifecycle (pool only, no SMR) --------------------------- *)

let grow_on_demand () =
  let capacity = 16 in
  let p = Core.create ~capacity ~threads:1 ~max_arenas:3 () in
  Alcotest.(check int) "one arena at birth" 1 (Core.attached_arenas p);
  Alcotest.(check int) "resident = capacity" capacity (Core.resident_slots p);
  let ids = Array.init 40 (fun _ -> Core.alloc p ~tid:0) in
  Alcotest.(check int) "grown to 3 arenas" 3 (Core.attached_arenas p);
  Alcotest.(check int) "two attach events" 2 (Core.arenas_attached p);
  Alcotest.(check int) "resident tripled" (3 * capacity) (Core.resident_slots p);
  (* ids unique, and the growth actually handed out high-arena slots *)
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun id ->
      if Hashtbl.mem seen id then Alcotest.failf "slot %d handed out twice" id;
      Hashtbl.add seen id ())
    ids;
  let off_bits = Core.off_bits p in
  Alcotest.(check bool) "arena 2 slots in circulation" true
    (Array.exists (fun id -> Handle.arena_of_id ~off_bits id = 2) ids);
  (* fill the rest: exhaustion at max_arenas is hard *)
  for _ = 1 to (3 * capacity) - 40 do
    ignore (Core.alloc p ~tid:0 : int)
  done;
  Alcotest.check_raises "exhausted at max_arenas" Mempool.Exhausted (fun () ->
      ignore (Core.alloc p ~tid:0 : int));
  Alcotest.(check bool) "hard exhaustion" true (Core.last_alloc_hard p ~tid:0)

let fixed_pool_exhaustion_is_soft () =
  let p = Core.create ~capacity:8 ~threads:1 () in
  for _ = 1 to 8 do
    ignore (Core.alloc p ~tid:0 : int)
  done;
  Alcotest.check_raises "exhausted" Mempool.Exhausted (fun () ->
      ignore (Core.alloc p ~tid:0 : int));
  Alcotest.(check bool) "never hard for max_arenas = 1" false (Core.last_alloc_hard p ~tid:0);
  (* A fixed pool is the elastic pool at max_arenas = 1: exhaustion
     neither grows it nor lets a drain start. *)
  Alcotest.(check int) "one arena" 1 (Core.attached_arenas p);
  Alcotest.(check (option int)) "no drain" None (Core.request_shrink p);
  Alcotest.(check bool) "nothing to cancel" false (Core.cancel_shrink p);
  Alcotest.(check int) "no detaching slots" 0 (Core.detaching_slots p);
  Alcotest.(check bool) "no detach ready" true (Core.detach_ready p = None)

let shrink_lifecycle () =
  let capacity = 16 in
  let p = Core.create ~capacity ~threads:1 ~max_arenas:3 () in
  let ids = Array.init 40 (fun _ -> Core.alloc p ~tid:0) in
  let off_bits = Core.off_bits p in
  let probe = (* an arena-2 slot whose metadata must survive the detach *)
    Array.to_list ids |> List.find (fun id -> Handle.arena_of_id ~off_bits id = 2)
  in
  let inc0 = Core.incarnation p probe in
  Array.iter (fun id -> Core.free p ~tid:0 id) ids;
  Core.release_local p ~tid:0;
  (* only the topmost arena is drainable *)
  Alcotest.(check (option int)) "drain arena 2" (Some 2) (Core.request_shrink p);
  Alcotest.(check (option int)) "no second drain" None (Core.request_shrink p);
  let token =
    match Core.detach_ready p with
    | None -> Alcotest.fail "all slots parked: detach must be ready"
    | Some (token, base, size) ->
      Alcotest.(check int) "draining arena" 2 (Core.drain_arena token);
      Alcotest.(check int) "base" (2 lsl off_bits) base;
      Alcotest.(check int) "size" capacity size;
      token
  in
  Alcotest.(check int) "parked slots are the drain cost" capacity (Core.detaching_slots p);
  Alcotest.(check int) "stamp unset" (-1) (Core.detach_stamp p ~token);
  Core.set_detach_stamp p ~token 42;
  Alcotest.(check int) "stamp set once" 42 (Core.detach_stamp p ~token);
  Alcotest.(check bool) "detach completes" true (Core.complete_detach p token);
  Alcotest.(check int) "two arenas left" 2 (Core.attached_arenas p);
  Alcotest.(check int) "resident shrank" (2 * capacity) (Core.resident_slots p);
  Alcotest.(check int) "one detach event" 1 (Core.arenas_detached p);
  (* the metadata shim outlives the detach: stale ids still resolve *)
  Alcotest.(check int) "incarnation survives" (inc0 + 1) (Core.incarnation p probe);
  Alcotest.(check bool) "stale id reads as free" true (Core.is_free p probe);
  (* cancel path: an aborted drain returns every slot to circulation *)
  Alcotest.(check (option int)) "drain arena 1" (Some 1) (Core.request_shrink p);
  Alcotest.(check bool) "cancel" true (Core.cancel_shrink p);
  Alcotest.(check bool) "nothing to cancel twice" false (Core.cancel_shrink p);
  (* exact conservation: both remaining arenas hand out every slot
     exactly once, with no grow needed *)
  let seen = Hashtbl.create 64 in
  for _ = 1 to 2 * capacity do
    let id = Core.alloc p ~tid:0 in
    if Hashtbl.mem seen id then Alcotest.failf "slot %d handed out twice" id;
    if Handle.arena_of_id ~off_bits id = 2 then
      Alcotest.failf "slot %d of the detached arena resurfaced" id;
    Hashtbl.add seen id ()
  done;
  Alcotest.(check int) "no grow during the drain-down" 2 (Core.attached_arenas p);
  (* re-grow re-attaches the detached arena index with fresh free lists *)
  ignore (Core.alloc p ~tid:0 : int);
  Alcotest.(check int) "regrown" 3 (Core.attached_arenas p);
  Alcotest.(check int) "attach counted" 3 (Core.arenas_attached p)

(* A payload access into a detached arena must raise — the honest analog
   of dereferencing an unmapped page. *)
let detached_payload_raises () =
  let capacity = 16 in
  let p = Mempool.create ~capacity ~threads:1 ~max_arenas:2 (fun i -> i) in
  let c = Mempool.core p in
  let ids = Array.init 24 (fun _ -> Mempool.alloc p ~tid:0) in
  let off_bits = Core.off_bits c in
  let high =
    Array.to_list ids |> List.find (fun id -> Handle.arena_of_id ~off_bits id = 1)
  in
  Alcotest.(check int) "payload live" high (Mempool.get p high);
  Array.iter (fun id -> Mempool.free p ~tid:0 id) ids;
  Core.release_local c ~tid:0;
  Alcotest.(check (option int)) "drain" (Some 1) (Core.request_shrink c);
  let token =
    match Core.detach_ready c with
    | None -> Alcotest.fail "detach must be ready"
    | Some (token, _, _) -> token
  in
  Core.set_detach_stamp c ~token 0;
  Alcotest.(check bool) "detached" true (Core.complete_detach c token);
  (match Mempool.get p high with
  | (_ : int) -> Alcotest.fail "access into a detached arena must raise"
  | exception Invalid_argument _ -> ());
  (* arena 0 payloads are untouched *)
  let low = Mempool.alloc p ~tid:0 in
  Alcotest.(check int) "arena 0 payload intact" low (Mempool.get p low)

(* Regression for the drain-identity ABA: quiescence evidence gathered
   under one drain must never complete a later drain of the same arena.
   Before drain tokens carried a generation, a poller that stalled
   across cancel + re-drain could CAS the bare arena index and unmap the
   arena against the first drain's older stamp. *)
let stale_drain_token_refused () =
  let capacity = 16 in
  let p = Core.create ~capacity ~threads:1 ~max_arenas:2 () in
  let ids = Array.init 24 (fun _ -> Core.alloc p ~tid:0) in
  Array.iter (fun id -> Core.free p ~tid:0 id) ids;
  Core.release_local p ~tid:0;
  Alcotest.(check (option int)) "drain arena 1" (Some 1) (Core.request_shrink p);
  let token1 =
    match Core.detach_ready p with
    | Some (token, _, _) -> token
    | None -> Alcotest.fail "first drain must reach full park"
  in
  Core.set_detach_stamp p ~token:token1 7;
  Alcotest.(check bool) "cancel" true (Core.cancel_shrink p);
  (* a fresh drain of the same arena gets a fresh identity *)
  Alcotest.(check (option int)) "re-drain arena 1" (Some 1) (Core.request_shrink p);
  let token2 =
    match Core.detach_ready p with
    | Some (token, _, _) -> token
    | None -> Alcotest.fail "second drain must reach full park"
  in
  Alcotest.(check bool) "tokens name distinct drains" true (token1 <> token2);
  Alcotest.(check int) "same arena under both tokens" (Core.drain_arena token1)
    (Core.drain_arena token2);
  Alcotest.(check int) "drain #1 stamp invisible to drain #2" (-1)
    (Core.detach_stamp p ~token:token2);
  Alcotest.(check bool) "stale completion refused" false (Core.complete_detach p token1);
  Alcotest.(check int) "arena survives the stale poller" 2 (Core.attached_arenas p);
  Core.set_detach_stamp p ~token:token2 9;
  Alcotest.(check bool) "current completion succeeds" true (Core.complete_detach p token2);
  Alcotest.(check int) "detached" 1 (Core.attached_arenas p);
  Alcotest.(check int) "one detach event" 1 (Core.arenas_detached p)

(* Detach.poll's state machine: stamps exactly once at full park,
   completes only when the quiescence gate passes. *)
let detach_poll_state_machine () =
  let p = Core.create ~capacity:8 ~threads:1 ~max_arenas:2 () in
  let ids = Array.init 12 (fun _ -> Core.alloc p ~tid:0) in
  Array.iter (fun id -> Core.free p ~tid:0 id) ids;
  Core.release_local p ~tid:0;
  let stamps = ref 0 and quiescent = ref false in
  let poll () =
    Smr_core.Detach.poll p
      ~stamp:(fun () -> incr stamps; 7)
      ~quiescent:(fun ~base:_ ~size:_ ~stamp ->
        Alcotest.(check int) "gate sees the stamped value" 7 stamp;
        !quiescent)
  in
  poll ();
  Alcotest.(check int) "no drain requested: no stamp" 0 !stamps;
  Alcotest.(check (option int)) "request" (Some 1) (Core.request_shrink p);
  poll ();
  Alcotest.(check int) "stamped at full park" 1 !stamps;
  let token =
    match Core.detach_ready p with
    | Some (token, _, _) -> token
    | None -> Alcotest.fail "full park must persist"
  in
  Alcotest.(check int) "stamp recorded" 7 (Core.detach_stamp p ~token);
  poll ();
  poll ();
  Alcotest.(check int) "stamped once" 1 !stamps;
  Alcotest.(check int) "blocked while not quiescent" 2 (Core.attached_arenas p);
  quiescent := true;
  poll ();
  Alcotest.(check int) "detached once quiescent" 1 (Core.attached_arenas p)

(* -- per-scheme: shrink blocks while a reader pins the arena --------------- *)

module Pinned (S : Smr_core.Smr_intf.S) = struct
  (* A reader holds a protected reference to an arena-1 node across the
     whole drain: the retired node must survive every scan (so the arena
     never reaches full park), and the detach must complete only after
     the reader ends its operation — through the ordinary scan path, with
     no extra coordination. *)
  let shrink_waits_for_reader () =
    let capacity = 128 in
    let pool =
      Core.create ~capacity ~threads:2 ~fair_share:32 ~max_arenas:2 ()
    in
    let config = Config.with_empty_freq (Config.default ~threads:2) 1 in
    let config = Config.with_max_arenas config 2 in
    let smr = S.create ~pool ~threads:2 config in
    let th0 = S.thread smr ~tid:0 and th1 = S.thread smr ~tid:1 in
    let off_bits = Core.off_bits pool in
    (* fill past one arena so the pool grows, keeping every id *)
    S.start_op th0;
    let ids = ref [] in
    while Core.attached_arenas pool < 2 do
      ids := S.alloc th0 :: !ids
    done;
    for _ = 1 to 8 do
      ids := S.alloc th0 :: !ids
    done;
    S.end_op th0;
    let x = List.find (fun id -> Handle.arena_of_id ~off_bits id = 1) !ids in
    let root = Atomic.make (S.handle_of th0 x) in
    (* reader protects the arena-1 node mid-operation *)
    S.start_op th1;
    let w = S.read th1 ~refno:0 root in
    Alcotest.(check int) "reader sees the node" x (Handle.id w);
    (* writer unlinks and retires everything *)
    S.start_op th0;
    Atomic.set root Handle.null;
    List.iter (S.retire th0) !ids;
    S.end_op th0;
    Alcotest.(check (option int)) "drain arena 1" (Some 1) (Core.request_shrink pool);
    Core.release_local pool ~tid:0;
    (* the reader's protection must hold the detach open *)
    for _ = 1 to 3 do
      S.flush th0
    done;
    Alcotest.(check int) "detach blocked while pinned" 2 (Core.attached_arenas pool);
    Alcotest.(check int) "no detach event" 0 (Core.arenas_detached pool);
    (* reader lets go: the next scans park the last slot, stamp, and
       complete the detach through the scheme's own quiescence gate *)
    S.end_op th1;
    let rounds = ref 0 in
    while Core.attached_arenas pool > 1 && !rounds < 20 do
      incr rounds;
      S.flush th0
    done;
    Alcotest.(check int) "detached after release" 1 (Core.attached_arenas pool);
    Alcotest.(check int) "one detach event" 1 (Core.arenas_detached pool);
    Alcotest.(check int) "resident back to one arena" capacity (Core.resident_slots pool);
    (* exact conservation: arena 0 hands out every slot exactly once,
       with no grow *)
    Alcotest.(check int) "nothing live" 0 (Core.live_count pool);
    Core.release_local pool ~tid:0;
    Core.release_local pool ~tid:1;
    let seen = Hashtbl.create 64 in
    for _ = 1 to capacity do
      let id = Core.alloc pool ~tid:0 in
      if Hashtbl.mem seen id then Alcotest.failf "slot %d handed out twice" id;
      if Handle.arena_of_id ~off_bits id <> 0 then
        Alcotest.failf "slot %d of the detached arena resurfaced" id;
      Hashtbl.add seen id ()
    done;
    Alcotest.(check int) "no grow needed" 1 (Core.attached_arenas pool)
end

let pinned_cases =
  List.map
    (fun (name, (module S : Smr_core.Smr_intf.S)) ->
      let module P = Pinned (S) in
      Alcotest.test_case
        (Printf.sprintf "%s: shrink waits for a pinned reader" name)
        `Quick P.shrink_waits_for_reader)
    [
      ("hp", (module Smr_schemes.Hp : Smr_core.Smr_intf.S));
      ("ebr", (module Smr_schemes.Ebr));
      ("he", (module Smr_schemes.He));
      ("ibr", (module Smr_schemes.Ibr));
      ("mp", (module Mp.Margin_ptr));
    ]

(* -- randomized end-to-end: spike → grow → crash → adopt → shrink ---------- *)

(* One scenario per seed, on the hash table with the UAF detector armed:
   worker 0 inserts a working set 1.5 arenas wide (the pool must grow);
   worker 1 churns under a fault plan that crashes it inside a
   protect/validate window, leaving its reservations published. After
   the join, the dead tid is adopted (releasing everything it pinned and
   its magazines), the keys are removed, and repeated shrink requests
   must drain the pool back to a single arena — no use-after-free, and
   arena 0 conserving every slot exactly once. *)
let elastic_scenario seed =
  let capacity = 2048 and max_arenas = 4 and range = 4096 in
  let working_set = capacity * 3 / 2 in
  let threads = 3 in
  let (module SET : Dstruct.Set_intf.SET) =
    Mp_harness.Instances.make Mp_harness.Instances.Hash_ds
      (List.nth
         [
           Mp_harness.Instances.scheme_of_name "mp";
           Mp_harness.Instances.scheme_of_name "hp";
           Mp_harness.Instances.scheme_of_name "ebr";
           Mp_harness.Instances.scheme_of_name "he";
           Mp_harness.Instances.scheme_of_name "ibr";
         ]
         (seed mod 5))
  in
  let config = Config.with_max_arenas (Config.default ~threads) max_arenas in
  let t = SET.create ~threads ~capacity ~check_access:true config in
  let pool = SET.pool t in
  Fault.arm ~threads
    (Fault.plan
       ~label:(Printf.sprintf "elastic-scenario-%d" seed)
       [
         Fault.crash_event ~tid:1 ~point:Fault.Protect_validate
           ~after_hits:(100 + (seed mod 500));
       ]);
  let spiker =
    Domain.spawn (fun () ->
        let s = SET.session t ~tid:0 in
        for k = 0 to working_set - 1 do
          ignore (SET.insert s ~key:k ~value:k : bool)
        done;
        SET.flush s;
        Core.release_local pool ~tid:0)
  in
  let churner =
    Domain.spawn (fun () ->
        let s = SET.session t ~tid:1 in
        let rng = Mp_util.Rng.split ~seed ~tid:1 in
        (try
           for _ = 1 to 6_000 do
             let k = Mp_util.Rng.below rng range in
             match Mp_util.Rng.below rng 4 with
             | 0 | 1 -> ignore (SET.insert s ~key:k ~value:k : bool)
             | 2 -> ignore (SET.remove s k : bool)
             | _ -> ignore (SET.contains s k : bool)
           done;
           SET.flush s;
           Core.release_local pool ~tid:1
         with Fault.Crashed _ -> ()))
  in
  Domain.join spiker;
  Domain.join churner;
  let crashed = Fault.crashed_tids () in
  Fault.disarm ();
  if Core.attached_arenas pool < 2 then
    Alcotest.failf "seed %d: the spike never grew the pool" seed;
  (* adopt the corpse: releases its reservations and its magazines *)
  List.iter
    (fun tid ->
      SET.adopt t ~tid;
      Core.release_local pool ~tid)
    crashed;
  (* decay: remove everything, then keep asking for drains until the
     pool is back to one arena *)
  let s = SET.session t ~tid:2 in
  for k = 0 to range - 1 do
    ignore (SET.remove s k : bool)
  done;
  SET.flush s;
  let deadline = Unix.gettimeofday () +. 20.0 in
  while Core.attached_arenas pool > 1 && Unix.gettimeofday () < deadline do
    ignore (Core.request_shrink pool : int option);
    ignore (SET.insert s ~key:0 ~value:0 : bool);
    ignore (SET.remove s 0 : bool);
    SET.flush s;
    Core.release_local pool ~tid:2
  done;
  SET.check t;
  if SET.violations t <> 0 then Alcotest.failf "seed %d: use-after-free" seed;
  if Core.attached_arenas pool <> 1 then
    Alcotest.failf "seed %d: drains never completed (%d arenas)" seed
      (Core.attached_arenas pool);
  if Core.arenas_detached pool <> Core.arenas_attached pool then
    Alcotest.failf "seed %d: %d attaches vs %d detaches" seed
      (Core.arenas_attached pool) (Core.arenas_detached pool);
  if Core.resident_slots pool <> capacity then
    Alcotest.failf "seed %d: %d slots resident after full decay" seed
      (Core.resident_slots pool);
  (* exact slot conservation: what is not live must be allocatable from
     arena 0 exactly once, without growing *)
  for tid = 0 to threads - 1 do
    Core.release_local pool ~tid
  done;
  let free_slots = capacity - Core.live_count pool in
  let off_bits = Core.off_bits pool in
  let seen = Hashtbl.create 64 in
  for _ = 1 to free_slots do
    let id = Core.alloc pool ~tid:2 in
    if Hashtbl.mem seen id then Alcotest.failf "seed %d: slot %d handed out twice" seed id;
    if Handle.arena_of_id ~off_bits id <> 0 then
      Alcotest.failf "seed %d: detached-arena slot %d resurfaced" seed id;
    Hashtbl.add seen id ()
  done;
  if Core.attached_arenas pool <> 1 then
    Alcotest.failf "seed %d: a slot was lost (draining the free lists forced a grow)" seed;
  true

let qcheck_elastic =
  QCheck.Test.make ~count:4 ~name:"spike/grow/crash/adopt/shrink conserves every slot"
    QCheck.(map (fun n -> abs n + 1) small_int)
    elastic_scenario

let () =
  Alcotest.run "elastic"
    [
      ( "packing",
        QCheck_alcotest.to_alcotest arena_pack_roundtrip
        :: QCheck_alcotest.to_alcotest max_arenas_fits
        :: [ Alcotest.test_case "off_bits minimal" `Quick off_bits_is_minimal ] );
      ( "lifecycle",
        [
          Alcotest.test_case "grow on demand" `Quick grow_on_demand;
          Alcotest.test_case "fixed pool exhaustion is soft" `Quick
            fixed_pool_exhaustion_is_soft;
          Alcotest.test_case "shrink lifecycle" `Quick shrink_lifecycle;
          Alcotest.test_case "detached payload raises" `Quick detached_payload_raises;
          Alcotest.test_case "stale drain token refused" `Quick stale_drain_token_refused;
          Alcotest.test_case "detach poll state machine" `Quick detach_poll_state_machine;
        ] );
      ("pinned readers", pinned_cases);
      ( "scenario",
        [ QCheck_alcotest.to_alcotest ~long:true qcheck_elastic ] );
    ]

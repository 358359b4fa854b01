(* External-memory engine: varint codec round-trips, arena spill/fault
   identity, and spilled-vs-resident differentials over the protocol
   corpus in all three fairness regimes (symmetry quotients included) —
   spilled spaces run the streaming sweeps, resident ones the Tarjan-based
   analyses, so these are also the streaming-vs-Tarjan equivalence. *)

(* Keep spill files out of the build sandbox. *)
let () =
  Unix.putenv "DDA_SPILL_DIR"
    (Filename.concat (Filename.get_temp_dir_name ()) "dda_spill_test")

module G = Dda_graph.Graph
module Machine = Dda_machine.Machine
module Space = Dda_verify.Space
module Decide = Dda_verify.Decide
module Engine = Dda_verify.Engine
module Arena = Dda_verify.Arena
module Sym = Dda_verify.Symmetry
module H = Dda_protocols.Homogeneous
module Prng = Dda_util.Prng
module Listx = Dda_util.Listx

(* Any positive budget below the unevictable floor forces every sealed
   segment straight to disk — the harshest spill schedule. *)
let tiny_budget = 1

(* ------------------------------------------------------------------ *)
(* Varint codec                                                         *)
(* ------------------------------------------------------------------ *)

let roundtrip xs =
  let b = Bytes.create ((List.length xs + 1) * Arena.varint_max) in
  let stop = List.fold_left (fun p v -> Arena.put_varint b p v) 0 xs in
  let rec read p acc =
    if p >= stop then List.rev acc
    else begin
      let v, p' = Arena.get_varint b p in
      read p' (v :: acc)
    end
  in
  read 0 []

let prop_varint_roundtrip =
  let gen =
    QCheck.(
      list_of_size
        Gen.(int_range 0 40)
        (oneof [ int_range 0 300; int_range 0 1_000_000; map (fun v -> v land max_int) int ]))
  in
  QCheck.Test.make ~name:"varint round-trip" ~count:500 gen (fun xs -> roundtrip xs = xs)

let test_varint_edges () =
  let edges = [ 0; 1; 127; 128; 255; 16383; 16384; (1 lsl 32) - 1; max_int ] in
  Alcotest.(check (list int)) "edge values" edges (roundtrip edges);
  let b = Bytes.create Arena.varint_max in
  Alcotest.check_raises "negative refused" (Invalid_argument "Arena.put_varint: negative")
    (fun () -> ignore (Arena.put_varint b 0 (-1)))

(* ------------------------------------------------------------------ *)
(* Arena: append / view identity across spills and faults               *)
(* ------------------------------------------------------------------ *)

let test_arena_spill_identity () =
  let budget = Arena.budget_create ~limit:tiny_budget in
  let a = Arena.create budget ~name:"records" ~seg_bytes:256 in
  let rng = Prng.create 42 in
  let recs =
    Array.init 500 (fun i ->
        let len = 1 + Prng.int rng 40 in
        Bytes.init len (fun k -> Char.chr ((i + (3 * k)) land 0xff)))
  in
  let pos = Array.map (fun r -> Arena.append a r 0 (Bytes.length r)) recs in
  let check i p =
    let seg, off = Arena.view a p in
    Alcotest.(check bool)
      (Printf.sprintf "record %d" i)
      true
      (Bytes.sub seg off (Bytes.length recs.(i)) = recs.(i))
  in
  (* forward then backward: the backward pass faults early segments back in
     after the tail pushed them out *)
  Array.iteri check pos;
  for i = Array.length pos - 1 downto 0 do
    check i pos.(i)
  done;
  let s = Arena.budget_stats budget in
  Alcotest.(check bool) "segments spilled" true (s.Arena.segments_out > 0);
  Alcotest.(check bool) "segments faulted" true (s.Arena.segments_in > 0);
  Alcotest.(check bool) "bytes written" true (s.Arena.bytes_out > 0);
  Alcotest.(check bool) "peak above budget floor" true (s.Arena.resident_peak >= 256);
  Arena.release a

let test_arena_u32 () =
  let budget = Arena.budget_create ~limit:tiny_budget in
  let a = Arena.create budget ~name:"u32" ~seg_bytes:64 in
  let scratch = Bytes.create 4 in
  let vals = Array.init 300 (fun i -> (i * 0x01000193) land 0xFFFFFFFF) in
  let pos =
    Array.map
      (fun v ->
        Bytes.set_int32_le scratch 0 (Int32.of_int v);
        Arena.append a scratch 0 4)
      vals
  in
  Array.iteri
    (fun i p -> Alcotest.(check int) (Printf.sprintf "u32 %d" i) vals.(i) (Arena.read_u32 a p))
    pos;
  Arena.release a

(* Rows of three u32s.  At 65,532-byte segments (whole rows) a cursor must
   read every row exactly as record reads do, and with every sealed
   segment evicted a descending pass must fault each segment once, not
   once per row.  At 65,536 bytes row 5,461 would straddle the boundary,
   and the cursor refuses it. *)
let test_cursor_rows () =
  let scratch = Bytes.create 4 in
  let rows = 12_000 in
  let value j = (j * 0x9e3779b1) land 0x7FFFFFFF in
  let fill a =
    for j = 0 to (3 * rows) - 1 do
      Bytes.set_int32_le scratch 0 (Int32.of_int (value j));
      ignore (Arena.append a scratch 0 4)
    done
  in
  let budget = Arena.budget_create ~limit:tiny_budget in
  let a = Arena.create budget ~name:"rows3" ~seg_bytes:65_532 in
  fill a;
  let dst = Array.make 3 0 in
  let c = Arena.cursor a in
  for r = 0 to rows - 1 do
    Arena.read_u32s c (r * 12) dst 3;
    for k = 0 to 2 do
      let want = Arena.read_u32 a ((r * 12) + (4 * k)) in
      if dst.(k) <> want then Alcotest.failf "row %d.%d: %d, record read %d" r k dst.(k) want
    done
  done;
  let c = Arena.cursor a in
  let before = (Arena.budget_stats budget).Arena.segments_in in
  for r = rows - 1 downto 0 do
    Arena.read_u32s c (r * 12) dst 3;
    for k = 0 to 2 do
      if dst.(k) <> value ((3 * r) + k) then Alcotest.failf "descending row %d.%d" r k
    done
  done;
  let sealed = (rows * 12) / 65_532 in
  Alcotest.(check int) "one fault per sealed segment" sealed
    ((Arena.budget_stats budget).Arena.segments_in - before);
  Arena.release a;
  let a = Arena.create budget ~name:"rows3-split" ~seg_bytes:65_536 in
  fill a;
  Alcotest.check_raises "straddling row refused"
    (Invalid_argument "Arena.read_u32s: run leaves its segment or its destination") (fun () ->
      Arena.read_u32s (Arena.cursor a) (5461 * 12) dst 3);
  Arena.release a

(* ------------------------------------------------------------------ *)
(* Spilled-vs-resident differential                                     *)
(* ------------------------------------------------------------------ *)

let shape_graph = function
  | 0 -> G.clique [ 'a'; 'a'; 'b'; 'b' ]
  | 1 -> G.line [ 'a'; 'b'; 'a'; 'b'; 'b' ]
  | 2 -> G.cycle [ 'a'; 'b'; 'b'; 'a'; 'b' ]
  | 3 -> G.star ~centre:'a' ~leaves:[ 'b'; 'b'; 'a' ]
  | _ -> G.line [ 'b'; 'a' ]

let same_space a b =
  a.Space.size = b.Space.size
  && a.Space.initial = b.Space.initial
  && List.for_all
       (fun i ->
         Helpers.edges a i = Helpers.edges b i
         && a.Space.accepting i = b.Space.accepting i
         && a.Space.rejecting i = b.Space.rejecting i)
       (Listx.range a.Space.size)

let same_sigmas a b =
  match (Space.engine a, Space.engine b) with
  | Some ea, Some eb ->
    let n = ea.Engine.node_count in
    let ok = ref (ea.Engine.initial_sigma = eb.Engine.initial_sigma) in
    for i = 0 to ea.Engine.size - 1 do
      for k = 0 to n - 1 do
        if Engine.edge_sigma ea i k <> Engine.edge_sigma eb i k then ok := false
      done
    done;
    !ok
  | _ -> false

(* Witness strings legitimately differ between the streaming and Tarjan
   analyses, so differentials compare constructors. *)
let verdict3 space =
  ( Helpers.verdict_shape (Decide.pseudo_stochastic space),
    Helpers.verdict_shape (Decide.adversarial space),
    Helpers.verdict_shape (Decide.unconditional space) )

let prop_spilled_matches_resident =
  QCheck.Test.make ~name:"spilled space = resident space (all regimes)" ~count:60
    QCheck.(pair small_int (int_range 0 4))
    (fun (seed, shape) ->
      let m = Helpers.random_machine seed in
      let g = shape_graph shape in
      let resident = Space.explore ~max_configs:100_000 m g in
      let spilled = Space.explore ~mem_budget:tiny_budget ~max_configs:100_000 m g in
      Engine.spilled (Option.get (Space.engine spilled))
      && (not (Engine.spilled (Option.get (Space.engine resident))))
      && same_space resident spilled
      && verdict3 resident = verdict3 spilled)

let prop_spilled_symmetry =
  QCheck.Test.make ~name:"spilled quotient = resident quotient" ~count:40
    QCheck.(pair small_int (int_range 0 3))
    (fun (seed, shape) ->
      let m = Helpers.random_machine seed in
      let g, sym = Helpers.graph_with_group shape in
      let resident = Space.explore ~symmetry:sym ~max_configs:100_000 m g in
      let spilled = Space.explore ~symmetry:sym ~mem_budget:tiny_budget ~max_configs:100_000 m g in
      same_space resident spilled
      && same_sigmas resident spilled
      && verdict3 resident = verdict3 spilled)

(* Deterministic corpus: §6.1 weak-majority lines (big enough to seal and
   spill real segments), the exists-a ring with its dihedral quotient, and
   the inconsistent oscillator. *)
let test_corpus_differential () =
  let check name resident spilled =
    Alcotest.(check bool) (name ^ " space") true (same_space resident spilled);
    Alcotest.(check bool) (name ^ " verdicts") true (verdict3 resident = verdict3 spilled)
  in
  let m = H.weak_majority ~degree_bound:2 in
  List.iter
    (fun word ->
      let labels = List.init (String.length word) (fun i -> String.make 1 word.[i]) in
      let g = G.line labels in
      let r = Space.explore ~max_configs:200_000 m g in
      let s = Space.explore ~mem_budget:tiny_budget ~max_configs:200_000 m g in
      check word r s;
      if word = "abab" then begin
        let st = Option.get (Engine.spill_stats (Option.get (Space.engine s))) in
        Alcotest.(check bool) "abab spilled segments" true (st.Arena.segments_out > 0)
      end)
    [ "abb"; "abab" ];
  let me = Dda_protocols.Cutoff_one.exists_label ~alphabet:[ "a"; "b" ] "a" in
  let labels = List.init 9 (fun i -> if i mod 3 = 0 then "a" else "b") in
  let g = G.cycle labels in
  let r = Space.explore ~symmetry:(Sym.cycle 9) ~max_configs:10_000 me g in
  let s = Space.explore ~symmetry:(Sym.cycle 9) ~mem_budget:tiny_budget ~max_configs:10_000 me g in
  check "exists-a ring / dihedral-18" r s;
  Alcotest.(check bool) "ring quotient sigmas" true (same_sigmas r s);
  let g = G.line [ 'a'; 'b'; 'a' ] in
  let r = Space.explore ~max_configs:10_000 Helpers.flipper g in
  let s = Space.explore ~mem_budget:tiny_budget ~max_configs:10_000 Helpers.flipper g in
  check "flipper" r s

(* A width-3 space big enough to cross the old row split: three mod-20
   counters on a line, 8,000 configurations, 96,000 edge bytes.  Under a
   1-byte budget every engine row read must equal the record reads of its
   edge arena, and the resident rows. *)
let test_engine_rows_width3 () =
  let m =
    Machine.create ~name:"mod20" ~beta:1
      ~init:(fun _ -> 0)
      ~delta:(fun q _ -> (q + 1) mod 20)
      ~accepting:(fun q -> q = 0)
      ~rejecting:(fun q -> q <> 0)
      ~pp_state:Format.pp_print_int ()
  in
  let g = G.line [ 'a'; 'b'; 'a' ] in
  let resident = Space.explore ~max_configs:10_000 m g in
  let spilled = Space.explore ~mem_budget:tiny_budget ~max_configs:10_000 m g in
  let er = Option.get (Space.engine resident) and es = Option.get (Space.engine spilled) in
  Alcotest.(check int) "configurations" 8000 es.Engine.size;
  let arena =
    match es.Engine.edges with
    | Engine.Ext_edges { targets; _ } -> targets
    | Engine.Flat_edges _ | Engine.Csr_edges _ -> Alcotest.fail "not spilled"
  in
  let rows = Engine.targets_reader es and resident_rows = Engine.targets_reader er in
  let dst = Array.make 3 0 and want = Array.make 3 0 in
  for i = es.Engine.size - 1 downto 0 do
    rows i dst;
    resident_rows i want;
    for k = 0 to 2 do
      let r = Arena.read_u32 arena (((i * 3) + k) * 4) in
      if dst.(k) <> r || dst.(k) <> want.(k) then
        Alcotest.failf "row %d.%d: cursor %d, record %d, resident %d" i k dst.(k) r want.(k)
    done
  done;
  Alcotest.(check bool) "verdicts" true (verdict3 resident = verdict3 spilled)

(* Under a 64 KiB budget the arena tails alone exceed the limit, so every
   faulted segment is evicted again at once.  Row reads through a cursor
   must still fault each segment once per sweep, not once per edge. *)
let test_small_budget_no_thrash () =
  let m = H.weak_majority ~degree_bound:2 in
  let g = G.cycle [ "a"; "a"; "b"; "b" ] in
  let resident = Space.explore ~max_configs:100_000 m g in
  let spilled = Space.explore ~mem_budget:65_536 ~max_configs:100_000 m g in
  Alcotest.(check bool) "spilled" true (Engine.spilled (Option.get (Space.engine spilled)));
  List.iter
    (fun (name, decide) ->
      let before = Arena.spill_segments () in
      let v = decide spilled in
      let faults = Arena.spill_segments () - before in
      Alcotest.(check int) (name ^ " verdict")
        (Helpers.verdict_shape (decide resident))
        (Helpers.verdict_shape v);
      if faults > 64 then Alcotest.failf "%s: %d segment faults" name faults)
    [ ("adversarial", Decide.adversarial); ("pseudo-stochastic", Decide.pseudo_stochastic) ]

(* Two spilled explorations alive in one process — as under
   [dda batch --shards 2 --mem-budget] or [dda serve -j 2] with
   DDA_MEM_BUDGET — must not share spill files: each must read back
   exactly the resident space.  Releasing a space (or an exploration that
   raises) must hand back every resident byte and remove its files. *)
let test_concurrent_spills () =
  let m = H.weak_majority ~degree_bound:2 in
  let graphs = [| G.line [ "a"; "b"; "a"; "b" ]; G.cycle [ "a"; "a"; "b"; "b" ] |] in
  let pid_dir = Filename.concat (Sys.getenv "DDA_SPILL_DIR") (Printf.sprintf "pid.%d" (Unix.getpid ())) in
  let files () = if Sys.file_exists pid_dir then List.sort compare (Array.to_list (Sys.readdir pid_dir)) else [] in
  let files0 = files () and resident0 = Arena.resident_bytes () in
  let domains =
    Array.map
      (fun g -> Domain.spawn (fun () -> Space.explore ~mem_budget:tiny_budget ~max_configs:100_000 m g))
      graphs
  in
  let spilled = Array.map Domain.join domains in
  Array.iteri
    (fun k g ->
      let resident = Space.explore ~max_configs:100_000 m g in
      let name = Printf.sprintf "instance %d" k in
      let st = Option.get (Engine.spill_stats (Option.get (Space.engine spilled.(k)))) in
      Alcotest.(check bool) (name ^ " spilled segments") true (st.Arena.segments_out > 0);
      Alcotest.(check bool) (name ^ " space") true (same_space resident spilled.(k));
      Alcotest.(check bool) (name ^ " verdicts") true (verdict3 resident = verdict3 spilled.(k)))
    graphs;
  Array.iter (fun s -> Engine.release (Option.get (Space.engine s))) spilled;
  Alcotest.(check int) "resident bytes after release" resident0 (Arena.resident_bytes ());
  Alcotest.(check (list string)) "spill files after release" files0 (files ());
  (match Space.explore ~mem_budget:tiny_budget ~max_configs:5_000 m graphs.(0) with
  | _ -> Alcotest.fail "expected Too_large"
  | exception Space.Too_large _ -> ());
  Alcotest.(check int) "resident bytes after Too_large" resident0 (Arena.resident_bytes ());
  Alcotest.(check (list string)) "spill files after Too_large" files0 (files ())

(* ------------------------------------------------------------------ *)
(* Silent moves                                                         *)
(* ------------------------------------------------------------------ *)

(* The engine writes a move that keeps the selected node's state as a
   self-loop with group element 0 and counts it in [silent_edges].  The
   oracle is a BFS over raw configurations with [Config.step], as
   [Helpers.explore_legacy] does; under a group it counts each orbit once,
   since an automorphism maps a silent move to a silent move. *)
let oracle_silent m g perms =
  let module C = Dda_runtime.Config in
  let n = G.nodes g in
  let seen = Hashtbl.create 1024 and orbits = Hashtbl.create 1024 in
  let queue = Queue.create () in
  let c0 = C.to_array (C.initial m g) in
  Hashtbl.replace seen c0 ();
  Queue.add c0 queue;
  let silent = ref 0 in
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    let key =
      Array.fold_left (fun k p -> min k (Array.init n (fun v -> c.(p.(v))))) c perms
    in
    let fresh_orbit = not (Hashtbl.mem orbits key) in
    if fresh_orbit then Hashtbl.replace orbits key ();
    for v = 0 to n - 1 do
      let c' = C.to_array (C.step m g (C.of_states c) [ v ]) in
      if c' = c then (if fresh_orbit then incr silent)
      else if not (Hashtbl.mem seen c') then begin
        Hashtbl.replace seen c' ();
        Queue.add c' queue
      end
    done
  done;
  !silent

let prop_silent_edges =
  QCheck.Test.make ~name:"silent edges = oracle self-loops, sigma 0" ~count:60
    QCheck.(triple small_int (int_range 0 3) bool)
    (fun (seed, shape, budgeted) ->
      let m = Helpers.random_machine seed in
      let g, sym = Helpers.graph_with_group shape in
      let mem_budget = if budgeted then Some tiny_budget else None in
      let legacy = Helpers.explore_legacy ~max_configs:100_000 m g in
      let legacy_loops =
        List.fold_left
          (fun a i -> a + List.length (List.filter (fun (_, j) -> j = i) (Helpers.edges legacy i)))
          0 (Listx.range legacy.Space.size)
      in
      List.for_all
        (fun (symmetry, expected) ->
          let space = Space.explore ?symmetry ?mem_budget ~max_configs:100_000 m g in
          let e = Option.get (Space.engine space) in
          let s = e.Engine.stats and n = e.Engine.node_count in
          let loops = ref 0 in
          for i = 0 to e.Engine.size - 1 do
            for k = 0 to n - 1 do
              if Engine.target e i k = i && Engine.edge_sigma e i k = 0 then incr loops
            done
          done;
          s.Engine.silent_edges = expected
          && !loops = expected
          && e.Engine.size + s.Engine.dedup_hits + s.Engine.silent_edges = 1 + (e.Engine.size * n))
        [ (None, legacy_loops); (Some sym, oracle_silent m g (Sym.perms sym)) ])

let () =
  Alcotest.run "spill"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_varint_roundtrip;
          Alcotest.test_case "varint edge values" `Quick test_varint_edges;
        ] );
      ( "arena",
        [
          Alcotest.test_case "spill/fault identity" `Quick test_arena_spill_identity;
          Alcotest.test_case "u32 records" `Quick test_arena_u32;
          Alcotest.test_case "cursor rows" `Quick test_cursor_rows;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_spilled_matches_resident;
          QCheck_alcotest.to_alcotest prop_spilled_symmetry;
          Alcotest.test_case "protocol corpus" `Quick test_corpus_differential;
          Alcotest.test_case "width-3 engine rows" `Quick test_engine_rows_width3;
          Alcotest.test_case "64 KiB budget does not thrash" `Quick test_small_budget_no_thrash;
          Alcotest.test_case "concurrent spilled explorations" `Quick test_concurrent_spills;
          QCheck_alcotest.to_alcotest prop_silent_edges;
        ] );
    ]

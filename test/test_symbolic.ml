(* Differential suite: the symbolic (counted) engine must agree with the
   explicit engine on every clique and star instance it claims to cover —
   the protocol corpus, all n <= 6, both fairness regimes — and its
   counted spaces must equal the list-based oracle's edge for edge.  Any
   disagreement is a hard failure. *)

module M = Dda_multiset.Multiset
module Machine = Dda_machine.Machine
module Space = Dda_verify.Space
module Engine = Dda_verify.Engine
module Decide = Dda_verify.Decide
module Spec = Dda_batch.Spec
module Store = Dda_batch.Store
module Batch = Dda_batch.Batch
module Fingerprint = Dda_batch.Fingerprint
module Family = Dda_symbolic.Family
module Counted = Dda_symbolic.Counted
module Certify = Dda_symbolic.Certify

let max_configs = 400_000
(* the differential sweep visits many instances whose spaces bound out;
   a tighter budget keeps the corpus wide without paying for exploration
   that ends in Too_large anyway *)
let diff_max_configs = 60_000

let verdict_class = function
  | Decide.Accepts -> "accepts"
  | Decide.Rejects -> "rejects"
  | Decide.Inconsistent _ -> "inconsistent"

(* The corpus: every protocol family the spec language exposes, at small
   parameters.  §6.1's homogeneous majority automaton is "slp-majority". *)
let protocols =
  [
    "exists:a";
    "cutoff1:a";
    "threshold:a,2";
    "majority-bounded:2";
    "weak-majority-bounded:2";
    "majority-pop";
    "slp-majority";
    "slp-mod:3,1";
    "odd-a-token";
  ]

(* All two-letter label words of length n, as clique and star specs. *)
let words n =
  let rec go k =
    if k = 0 then [ "" ]
    else List.concat_map (fun w -> [ w ^ "a"; w ^ "b" ]) (go (k - 1))
  in
  go n

let graph_specs =
  List.concat_map
    (fun n ->
      let cliques =
        (* cliques are node-permutation invariant: one spec per label
           multiset is enough *)
        List.sort_uniq compare
          (List.map
             (fun w ->
               let cs = List.sort compare (List.init n (String.get w)) in
               "clique:" ^ String.init n (List.nth cs))
             (words n))
      in
      let stars =
        (* a star is determined by centre label + leaf multiset *)
        List.sort_uniq compare
          (List.concat_map
             (fun c ->
               List.map
                 (fun w ->
                   let cs = List.sort compare (List.init (n - 1) (String.get w)) in
                   "star:" ^ c ^ String.init (n - 1) (List.nth cs))
                 (words (n - 1)))
             [ "a"; "b" ])
      in
      cliques @ stars)
    [ 3; 4; 5; 6 ]

let or_fail = function Ok v -> v | Error e -> Alcotest.fail e

(* --- counted-engine oracle ---------------------------------------------- *)

(* The list-based counted explorer the packed engine replaced, kept as a
   test oracle: structural Hashtbl keys for configurations and delta calls,
   sorted (state id, count) lists, successor lists.  It interns states and
   configurations in the same BFS order, so the packed engine must
   reproduce it edge for edge. *)
module Oracle = struct
  type t = {
    succs : (int * int) list array;
    acc : bool array;
    rej : bool array;
    state_count : int;
  }

  (* add [delta] copies of [sid] to a sorted pair list, dropping zeros *)
  let rec pairs_add sid delta = function
    | [] -> if delta = 0 then [] else [ (sid, delta) ]
    | (s, c) :: rest when s = sid -> if c + delta = 0 then rest else (s, c + delta) :: rest
    | (s, c) :: rest when s < sid -> (s, c) :: pairs_add sid delta rest
    | rest -> if delta = 0 then rest else (sid, delta) :: rest

  let explore (type l s) (m : (l, s) Machine.t) (shape : l Counted.shape) =
    let ids : (s, int) Hashtbl.t = Hashtbl.create 64 in
    let states : (int, s) Hashtbl.t = Hashtbl.create 64 in
    let sid q =
      match Hashtbl.find_opt ids q with
      | Some i -> i
      | None ->
          let i = Hashtbl.length ids in
          Hashtbl.add ids q i;
          Hashtbl.add states i q;
          i
    in
    let state = Hashtbl.find states in
    let centre, counts =
      match shape with
      | Counted.S_clique c -> (None, c)
      | Counted.S_star (c, leaves) -> (Some c, leaves)
    in
    let prefix0 = match centre with None -> -1 | Some l -> sid (m.Machine.init l) in
    let pairs0 = List.sort compare (M.to_counts (M.map (fun l -> sid (m.Machine.init l)) counts)) in
    let configs = Hashtbl.create 1024 and queue = Queue.create () in
    let intern ((prefix, pairs) as c) =
      (* a flat string key: polymorphic hashing would only see a list's
         first few cells *)
      let b = Buffer.create 32 in
      List.iter
        (fun (s, n) ->
          Buffer.add_int32_le b (Int32.of_int s);
          Buffer.add_int32_le b (Int32.of_int n))
        ((prefix, 0) :: pairs);
      let k = Buffer.contents b in
      match Hashtbl.find_opt configs k with
      | Some i -> i
      | None ->
          let i = Hashtbl.length configs in
          Hashtbl.add configs k i;
          Queue.add c queue;
          i
    in
    let memo = Hashtbl.create 256 in
    let delta mover capped =
      match Hashtbl.find_opt memo (mover, capped) with
      | Some q -> q
      | None ->
          let obs =
            List.sort (fun (a, _) (b, _) -> compare a b) (List.map (fun (s, c) -> (state s, c)) capped)
          in
          let q = sid (m.Machine.delta (state mover) obs) in
          Hashtbl.add memo (mover, capped) q;
          q
    in
    let cap = List.map (fun (s, c) -> (s, min c m.Machine.beta)) in
    let moved q q' pairs = pairs_add q' 1 (pairs_add q (-1) pairs) in
    ignore (intern (prefix0, pairs0));
    let out = ref [] in
    while not (Queue.is_empty queue) do
      let prefix, pairs = Queue.pop queue in
      let leaf_moves observe =
        List.map (fun (q, _) -> (q, intern (prefix, moved q (delta q (observe q)) pairs))) pairs
      in
      let es =
        if prefix < 0 then leaf_moves (fun q -> cap (pairs_add q (-1) pairs))
        else
          (* the centre moves first: bind it before the leaves intern *)
          let centre = (-1, intern (delta prefix (cap pairs), pairs)) in
          centre :: leaf_moves (fun _ -> [ (prefix, 1) ])
      in
      let all f = List.for_all (fun (s, _) -> f (state s)) pairs && (prefix < 0 || f (state prefix)) in
      out := (es, all m.Machine.accepting, all m.Machine.rejecting) :: !out
    done;
    let out = Array.of_list (List.rev !out) in
    {
      succs = Array.map (fun (es, _, _) -> es) out;
      acc = Array.map (fun (_, a, _) -> a) out;
      rej = Array.map (fun (_, _, r) -> r) out;
      state_count = Hashtbl.length ids;
    }
end

(* The packed space must equal the oracle's edge for edge: ids, the
   (mover, target) order of every configuration's edges, acc and rej. *)
let check_oracle ctx m g (c : Space.t) =
  let o = Oracle.explore m (Option.get (Counted.shape_of_graph g)) in
  Alcotest.(check int) (ctx "size") (Array.length o.Oracle.succs) c.Space.size;
  Alcotest.(check int) (ctx "initial") 0 c.Space.initial;
  Alcotest.(check int) (ctx "states") o.Oracle.state_count
    (Option.get c.Space.engine).Engine.stats.Engine.state_count;
  Alcotest.(check int) (ctx "edges")
    (Array.fold_left (fun n es -> n + List.length es) 0 o.Oracle.succs)
    (List.fold_left (fun n i -> n + c.Space.degree i) 0 (List.init c.Space.size Fun.id));
  Array.iteri
    (fun i es ->
      let csr = List.init (c.Space.degree i) (fun k -> (c.Space.label i k, c.Space.target i k)) in
      if csr <> es || c.Space.accepting i <> o.Oracle.acc.(i) || c.Space.rejecting i <> o.Oracle.rej.(i) then
        Alcotest.fail (ctx (Printf.sprintf "configuration %d differs from the oracle" i)))
    o.Oracle.succs

let check_instance proto gspec =
  let g = or_fail (Spec.parse_graph gspec) in
  match Spec.parse_protocol proto g with
  | Error _ -> ()  (* e.g. exists:a over an all-b graph: no such protocol *)
  | Ok (Spec.Packed m) ->
  let ctx fmt = Printf.sprintf "%s on %s %s" proto gspec fmt in
  match Counted.of_graph ~max_configs:diff_max_configs m g with
  | exception Counted.Too_large _ -> ()  (* both engines bounded out here *)
  | None -> Alcotest.fail (ctx "not recognised as clique/star")
  | Some counted ->
  check_oracle ctx m g counted;
  (match Space.explore ~max_configs:diff_max_configs m g with
  | exception Space.Too_large _ ->
    (* beyond the explicit engine's reach: nothing to compare against —
       exactly the sizes the symbolic engine exists for *)
    ()
  | explicit ->
    (* adversarial *)
    Alcotest.(check string)
      (ctx "adversarial")
      (verdict_class (Decide.adversarial explicit))
      (verdict_class (Decide.adversarial counted));
    (* pseudo-stochastic *)
    Alcotest.(check string)
      (ctx "pseudo-stochastic")
      (verdict_class (Decide.pseudo_stochastic explicit))
      (verdict_class (Decide.pseudo_stochastic counted)))

let test_differential_corpus () =
  List.iter
    (fun proto -> List.iter (fun gspec -> check_instance proto gspec) graph_specs)
    protocols

(* A hand-built counted space whose only non-accepting fair set appears
   after a second peel round.  Labels are moved states; vertex 2 owes a
   2-move that only leaves the big component, so round one drops it and
   splits {0, 1, 2}; round two finds {0, 1} fair (its 1-obligation is met
   by vertex 1's silent move).  Vertex 3 is a fair non-rejecting sink. *)
let test_peel_rounds () =
  let edges = [| [ (0, 1); (1, 2) ]; [ (0, 0); (1, 1) ]; [ (0, 0); (2, 3) ]; [ (2, 3) ] |] in
  let c =
    {
      Space.kind = Space.Counted;
      node_count = 2;
      size = 4;
      initial = 0;
      degree = (fun i -> List.length edges.(i));
      target = (fun i k -> snd (List.nth edges.(i) k));
      label = (fun i k -> fst (List.nth edges.(i) k));
      accepting = Array.get [| false; true; true; true |];
      rejecting = Array.get [| true; true; true; false |];
      describe = string_of_int;
      engine = None;
    }
  in
  match Decide.adversarial c with
  | Decide.Inconsistent w ->
      Alcotest.(check string) "witnesses" "fair runs can revisit the non-accepting configuration 0 and the non-rejecting configuration 3 forever" w
  | v -> Alcotest.failf "expected inconsistent, got %s" (verdict_class v)

(* The 62-node bound is the explicit spaces' own: a counted clique of 70
   nodes decides under adversarial fairness. *)
let test_counted_no_node_bound () =
  let space =
    Counted.clique ~max_configs:1000 Helpers.exists_a (M.of_counts [ ('a', 1); ('b', 69) ])
  in
  Alcotest.(check int) "70 nodes" 70 space.Space.node_count;
  Alcotest.(check string) "accepts" "accepts" (verdict_class (Decide.adversarial space))

(* Counted spaces stay resident whatever [DDA_MEM_BUDGET] says: the
   spilled store, and the streaming sweeps that run only on it, assume
   [node_count] edges per row.  With it set, sizes and verdicts must equal
   the unset run's. *)
let test_counted_ignores_knobs () =
  let run () =
    List.concat_map
      (fun gspec ->
        let g = or_fail (Spec.parse_graph gspec) in
        let (Spec.Packed m) = or_fail (Spec.parse_protocol "threshold:a,2" g) in
        List.map
          (fun regime ->
            let space = Option.get (Counted.of_graph ~max_configs m g) in
            (gspec, space.Space.size, verdict_class (Decide.for_regime regime space)))
          [ Decide.Adversarial; Decide.Pseudo_stochastic ])
      [ "clique:aabb"; "star:baab"; "star:abbb" ]
  in
  let unset = run () in
  let saved = Option.value (Sys.getenv_opt "DDA_MEM_BUDGET") ~default:"" in
  Unix.putenv "DDA_MEM_BUDGET" "1";
  let set = Fun.protect ~finally:(fun () -> Unix.putenv "DDA_MEM_BUDGET" saved) run in
  List.iter2
    (fun (g, n, v) (_, n', v') ->
      Alcotest.(check int) (g ^ " size") n n';
      Alcotest.(check string) (g ^ " verdict") v v')
    unset set

(* --- family specs ------------------------------------------------------- *)

let test_family_parse () =
  let f = or_fail (Family.parse "star:ba*") in
  Alcotest.(check string) "canonical" "star:ba*" (Family.to_string f);
  Alcotest.(check int) "min" 3 (Family.min_nodes f);
  Alcotest.(check string) "instance" "star:baaa" (Family.instance_spec f 4);
  (* trailing runs collapse to the same family *)
  let f' = or_fail (Family.parse "star:baaa*") in
  Alcotest.(check string) "collapsed" (Family.to_string f) (Family.to_string f');
  (match Family.of_instance_spec "star:baaaa" with
  | Some (f'', n) ->
      Alcotest.(check string) "inverse" (Family.to_string f) (Family.to_string f'');
      Alcotest.(check int) "inverse n" 5 n
  | None -> Alcotest.fail "of_instance_spec");
  Alcotest.(check bool) "line rejected" true
    (Result.is_error (Family.parse "line:ab*"));
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error (Family.parse "clique:*"))

(* A certified family verdict must agree with the explicit engine on every
   instance the explicit engine can still reach. *)
let explicit_decide regime m g = Decide.for_regime regime (Space.explore ~max_configs m g)

(* a family decided under one regime alone *)
let decide_family ?max_configs regime m fam =
  match Certify.decide_family ?max_configs ~regimes:[ regime ] m fam with
  | [ (r, _) ] -> r
  | _ -> Alcotest.fail "one result per regime"

let check_family proto fspec regime =
  let fam = or_fail (Family.parse fspec) in
  let rep = Family.instance fam (Family.min_nodes fam) in
  let (Spec.Packed m) = or_fail (Spec.parse_protocol proto rep) in
  match decide_family ~max_configs regime m fam with
  | Error _ -> Alcotest.fail (Printf.sprintf "%s on %s: no family verdict" proto fspec)
  | Ok fv ->
      for n = Family.min_nodes fam to 7 do
        if n >= fv.Certify.from_n then begin
          let g = Family.instance fam n in
          let (Spec.Packed mi) = or_fail (Spec.parse_protocol proto g) in
          let ev = explicit_decide regime mi g in
          Alcotest.(check string)
            (Printf.sprintf "%s on %s at n=%d" proto fspec n)
            (verdict_class ev)
            (verdict_class fv.Certify.verdict)
        end
      done;
      fv

let test_family_certified_star () =
  (* §6.1-adjacent: existence of an [a] on a star — certified cutoff *)
  let fv = check_family "exists:a" "star:ba*" Decide.Pseudo_stochastic in
  (match fv.Certify.certificate with
  | Certify.Cutoff k -> Alcotest.(check bool) "cutoff positive" true (k >= 2)
  | Certify.Window _ -> Alcotest.fail "expected a certified cutoff");
  Alcotest.(check string) "verdict" "accepts" (verdict_class fv.Certify.verdict);
  (* "a occurs and b does not": every star:ab* instance has b leaves *)
  let fv = check_family "cutoff1:a" "star:ab*" Decide.Adversarial in
  Alcotest.(check string) "rejects" "rejects" (verdict_class fv.Certify.verdict)

let test_family_window_clique () =
  let fv = check_family "exists:a" "clique:ab*" Decide.Pseudo_stochastic in
  (match fv.Certify.certificate with
  | Certify.Window _ -> ()
  | Certify.Cutoff _ -> Alcotest.fail "cliques cannot be certified");
  Alcotest.(check string) "verdict" "accepts" (verdict_class fv.Certify.verdict)

(* Family results as computed by the list-based engine: verdict class,
   from_n, checked_to, certificate and total counted configurations. *)
let pinned_families =
  [
    ("threshold:a,2", "star:ba*", Decide.Adversarial, "inconsistent", 3, 8, Certify.Window 6, 73392);
    ("threshold:a,2", "star:ba*", Decide.Pseudo_stochastic, "accepts", 3, 8, Certify.Window 6, 73392);
    ("threshold:a,2", "clique:ab*", Decide.Adversarial, "rejects", 3, 8, Certify.Window 6, 2604);
    ("threshold:a,2", "clique:ab*", Decide.Pseudo_stochastic, "rejects", 3, 8, Certify.Window 6, 2604);
    ("exists:a", "star:ba*", Decide.Adversarial, "accepts", 3, 18, Certify.Cutoff 17, 336);
    ("exists:a", "star:ba*", Decide.Pseudo_stochastic, "accepts", 3, 18, Certify.Cutoff 17, 336);
    ("exists:a", "clique:ab*", Decide.Adversarial, "accepts", 3, 8, Certify.Window 6, 66);
    ("exists:a", "clique:ab*", Decide.Pseudo_stochastic, "accepts", 3, 8, Certify.Window 6, 66);
    ("cutoff1:a", "star:ba*", Decide.Adversarial, "rejects", 3, 18, Certify.Cutoff 17, 336);
    ("cutoff1:a", "star:ba*", Decide.Pseudo_stochastic, "rejects", 3, 18, Certify.Cutoff 17, 336);
    ("cutoff1:a", "clique:ab*", Decide.Adversarial, "rejects", 3, 8, Certify.Window 6, 66);
    ("cutoff1:a", "clique:ab*", Decide.Pseudo_stochastic, "rejects", 3, 8, Certify.Window 6, 66);
  ]

let test_family_pinned () =
  List.iter
    (fun (proto, fspec, regime, verdict, from_n, checked_to, certificate, configs) ->
      let fam = or_fail (Family.parse fspec) in
      let rep = Family.instance fam (Family.min_nodes fam) in
      let (Spec.Packed m) = or_fail (Spec.parse_protocol proto rep) in
      let ctx what =
        Printf.sprintf "%s on %s (%s): %s" proto fspec
          (Spec.regime_name regime)
          what
      in
      match decide_family regime m fam with
      | Error _ -> Alcotest.fail (ctx "no family verdict")
      | Ok fv ->
          Alcotest.(check string) (ctx "verdict") verdict (verdict_class fv.Certify.verdict);
          Alcotest.(check int) (ctx "from_n") from_n fv.Certify.from_n;
          Alcotest.(check int) (ctx "checked_to") checked_to fv.Certify.checked_to;
          Alcotest.(check bool) (ctx "certificate") true (fv.Certify.certificate = certificate);
          Alcotest.(check int) (ctx "configs") configs fv.Certify.configs)
    pinned_families

(* One call over both regimes explores each instance once and gives, field
   for field, what two single-regime calls give. *)
let test_family_regime_pair () =
  List.iter
    (fun (proto, fspec, regime, _, _, _, _, _) ->
      if regime = Decide.Adversarial then begin
        let fam = or_fail (Family.parse fspec) in
        let rep = Family.instance fam (Family.min_nodes fam) in
        let (Spec.Packed m) = or_fail (Spec.parse_protocol proto rep) in
        let regimes = [ Decide.Adversarial; Decide.Pseudo_stochastic ] in
        let paired = List.map fst (Certify.decide_family ~regimes m fam) in
        List.iter2
          (fun regime pair ->
            let ctx what =
              Printf.sprintf "%s on %s (%s, paired): %s" proto fspec (Spec.regime_name regime) what
            in
            match (decide_family regime m fam, pair) with
            | Ok a, Ok b ->
                Alcotest.(check bool) (ctx "verdict") true (a.Certify.verdict = b.Certify.verdict);
                Alcotest.(check int) (ctx "from_n") a.Certify.from_n b.Certify.from_n;
                Alcotest.(check int) (ctx "checked_to") a.Certify.checked_to b.Certify.checked_to;
                Alcotest.(check bool) (ctx "certificate") true
                  (a.Certify.certificate = b.Certify.certificate);
                Alcotest.(check int) (ctx "configs") a.Certify.configs b.Certify.configs;
                Alcotest.(check bool) (ctx "instances") true
                  (a.Certify.instances = b.Certify.instances)
            | _ -> Alcotest.fail (ctx "no family verdict"))
          regimes paired
      end)
    pinned_families

(* --- cache threading ----------------------------------------------------- *)

let with_store f =
  let dir =
    Filename.temp_file "dda_symbolic_cache" ""
  in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let store = Store.open_ ~root:dir () in
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f store)

let test_family_cache_roundtrip () =
  with_store @@ fun store ->
  let fam = or_fail (Family.parse "star:ba*") in
  let rep = Family.instance fam 3 in
  let (Spec.Packed m) = or_fail (Spec.parse_protocol "exists:a" rep) in
  let regime = Spec.Pseudo_stochastic in
  let run () =
    or_fail
      (Batch.decide_family ~cache:store ~count:false ~regime
         ~max_configs:max_configs m fam)
  in
  let d1, cert1 = run () in
  Alcotest.(check bool) "first computes" false d1.Batch.cached;
  (match cert1 with
  | Some fc -> Alcotest.(check bool) "has cutoff" true (fc.Store.cutoff <> None)
  | None -> Alcotest.fail "no certification record");
  let d2, cert2 = run () in
  Alcotest.(check bool) "second cached" true d2.Batch.cached;
  Alcotest.(check bool) "cert survives" true (cert2 = cert1);
  (* an instance query far beyond the explicit engine's reach is answered
     from the family entry *)
  let mkey = Fingerprint.machine ~labels:[ "a"; "b" ] m in
  (match
     Batch.family_hit ~cache:store ~machine_key:mkey ~regime
       ~max_configs:max_configs "star:baaaaaaaaaaaaaaa"
   with
  | Some (entry, _) ->
      Alcotest.(check bool) "verdict is accepts" true
        (entry.Store.verdict = Store.Verdict Decide.Accepts)
  | None -> Alcotest.fail "family entry did not answer the instance query");
  (* below from_n, or for a different family, it must not answer *)
  (match
     Batch.family_hit ~cache:store ~machine_key:mkey ~regime
       ~max_configs:max_configs "star:bb"
   with
  | Some _ -> Alcotest.fail "wrong family answered"
  | None -> ())

let test_engine_salting () =
  (* explicit keys are byte-identical to the pre-engine format; symbolic
     keys never collide with them *)
  let k_explicit =
    Fingerprint.key ~machine:"m" ~graph:"g" ~regime:"F" ~max_configs:1 ()
  in
  let k_explicit' =
    Fingerprint.key ~engine:"explicit" ~machine:"m" ~graph:"g" ~regime:"F"
      ~max_configs:1 ()
  in
  let k_symbolic =
    Fingerprint.key ~engine:"symbolic" ~machine:"m" ~graph:"g" ~regime:"F"
      ~max_configs:1 ()
  in
  Alcotest.(check string) "explicit default" k_explicit k_explicit';
  Alcotest.(check bool) "salted apart" true (k_explicit <> k_symbolic)

let test_store_migration () =
  (* entries written before the engine field default to engine="explicit"
     and no certification record *)
  with_store @@ fun store ->
  let key = Fingerprint.key ~machine:"m" ~graph:"g" ~regime:"F" ~max_configs:9 () in
  let legacy =
    Printf.sprintf
      {|{"schema":"dda.cache/1","salt":"%s","key":"%s","machine":"m","graph":"g","regime":"F","max_configs":9,"verdict":{"kind":"accepts"},"configs":4,"seconds":0.1}|}
      Fingerprint.version_salt key
  in
  let dir = Filename.concat (Store.root store) (String.sub key 0 2) in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out (Filename.concat dir (key ^ ".json")) in
  output_string oc legacy;
  close_out oc;
  match Store.find store key with
  | Some e ->
      Alcotest.(check string) "engine defaults" "explicit" e.Store.engine;
      Alcotest.(check bool) "no family" true (e.Store.family = None)
  | None -> Alcotest.fail "legacy entry unreadable"

let () =
  Alcotest.run "symbolic"
    [
      ( "differential",
        [ Alcotest.test_case "corpus n<=6, all regimes" `Slow test_differential_corpus ] );
      ( "analysis",
        [
          Alcotest.test_case "adversarial peel rounds" `Quick test_peel_rounds;
          Alcotest.test_case "knobs leave counted spaces alone" `Quick test_counted_ignores_knobs;
          Alcotest.test_case "adversarial counted beyond 62 nodes" `Quick test_counted_no_node_bound;
        ] );
      ( "family",
        [
          Alcotest.test_case "parse/canonical" `Quick test_family_parse;
          Alcotest.test_case "certified star" `Quick test_family_certified_star;
          Alcotest.test_case "window clique" `Quick test_family_window_clique;
          Alcotest.test_case "pinned results" `Quick test_family_pinned;
          Alcotest.test_case "regime pair matches single calls" `Quick test_family_regime_pair;
        ] );
      ( "cache",
        [
          Alcotest.test_case "family round-trip" `Quick test_family_cache_roundtrip;
          Alcotest.test_case "engine salting" `Quick test_engine_salting;
          Alcotest.test_case "store migration" `Quick test_store_migration;
        ] );
    ]

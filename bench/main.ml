(* The experiment harness: regenerates every table/figure-level claim of the
   paper (see DESIGN.md's experiment index E1-E8) and times the library's
   core kernels with bechamel.

   Run with:  dune exec bench/main.exe            (full run)
              dune exec bench/main.exe -- quick   (skip the slowest series)
              dune exec bench/main.exe -- --smoke (minimal sizes, CI smoke) *)

module G = Dda_graph.Graph
module M = Dda_multiset.Multiset
module Machine = Dda_machine.Machine
module N = Dda_machine.Neighbourhood
module Config = Dda_runtime.Config
module Run = Dda_runtime.Run
module Scheduler = Dda_scheduler.Scheduler
module Space = Dda_verify.Space
module Decide = Dda_verify.Decide
module WB = Dda_extensions.Weak_broadcast
module Pop = Dda_extensions.Population
module SB = Dda_extensions.Strong_broadcast
module H = Dda_protocols.Homogeneous
module Cov = Dda_wsts.Coverability
module Listx = Dda_util.Listx

(* every duration below is monotonic-clock; wall time would fold NTP steps
   into the measurements *)
let mono = Dda_telemetry.Telemetry.monotonic

type mode = Full | Quick | Smoke

(* Proper flag parsing; the pre-telemetry harness matched bare words with
   Array.exists, so "quick"/"smoke" stay accepted for compatibility. *)
let mode =
  let m = ref Full in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--smoke" | "smoke" -> m := Smoke
        | "--quick" | "quick" -> if !m <> Smoke then m := Quick
        | other ->
          Printf.eprintf "bench: ignoring unknown argument %S (expected --quick or --smoke)\n%!"
            other)
    Sys.argv;
  !m

let smoke = mode = Smoke
let quick = mode <> Full

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* Spill segments written by budgeted runs go to the system temp dir, not
   the repo checkout. *)
let () =
  Unix.putenv "DDA_SPILL_DIR"
    (Filename.concat (Filename.get_temp_dir_name ()) "dda_bench_spill")

(* ------------------------------------------------------------------ *)
(* Peak-RSS measurement and fork-per-row isolation (E11 rows, E18)      *)
(* ------------------------------------------------------------------ *)

(* VmHWM from /proc/self/status: the peak resident set of the whole
   process.  None on systems without procfs (the portable fallback). *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec go () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        String.fold_left
          (fun acc c -> if c >= '0' && c <= '9' then Some ((Option.value ~default:0 acc * 10) + Char.code c - Char.code '0') else acc)
          None line
      | _ -> go ()
      | exception End_of_file -> None
    in
    Fun.protect ~finally:(fun () -> close_in ic) go

(* Run [f] in a forked child and marshal its result back together with the
   child's own VmHWM, so each measurement sees its own high-water mark
   rather than the maximum over every experiment before it.  A forked
   child's VmHWM starts at the parent's *current* RSS, so rows that gate on
   absolute numbers (E18) run first, while the bench process is still
   small.  Returns None where fork is unavailable; callers then measure
   in-process (peak_rss becomes the portable whole-process fallback). *)
let in_fork (f : unit -> 'a) : ('a * int option) option =
  match Unix.pipe ~cloexec:false () with
  | exception _ -> None
  | rd, wr ->
    (* catch-all: OCaml 5 refuses to fork once any domain has ever been
       spawned in the process (Failure, not Unix_error), so forked
       measurements must run before the domain-spawning experiments *)
    (match Unix.fork () with
    | exception _ ->
      Unix.close rd;
      Unix.close wr;
      None
    | 0 ->
      Unix.close rd;
      let payload =
        match f () with
        | v -> Ok (v, peak_rss_kb ())
        | exception e -> Error (Printexc.to_string e)
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc payload [];
      flush oc;
      (* _exit: the child must not flush the stdio buffers (and must not run
         the at_exit handlers) it inherited from the parent *)
      Unix._exit 0
    | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let payload = (Marshal.from_channel ic : ('a * int option, string) result) in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      (match payload with
      | Ok (v, rss) -> Some (v, rss)
      | Error msg -> failwith ("forked bench child failed: " ^ msg)))

(* ------------------------------------------------------------------ *)
(* E18: external-memory exploration under --mem-budget                  *)
(* ------------------------------------------------------------------ *)

type spill_row = {
  sp_backend : string;
  sp_budget : int option;
  sp_configs : int;
  sp_edges : int;
  sp_seconds : float;
  sp_verdict : string;
  sp_peak_rss_kb : int option;
  sp_segments_out : int;
  sp_bytes_out : int;
  sp_resident_peak : int;
}

type spill_bench = {
  spb_instance : string;
  spb_resident : spill_row;
  spb_budgeted : spill_row;
  spb_rss_ratio : float option;
  spb_wall_ratio : float;
  spb_identical : bool;
  spb_n8 : (string * spill_row) option;
}

(* stashed for E11's BENCH_verify.json writer *)
let spill_bench_result : spill_bench option ref = ref None

(* Runs FIRST: each measurement forks, and a forked child's VmHWM baseline
   is the parent's RSS at fork time — forking before the heavyweight
   experiments keeps that baseline at the bench's startup footprint, so the
   resident-vs-budgeted RSS ratio reflects the engine, not the harness. *)
let experiment_spill () =
  section "E18  external-memory exploration: --mem-budget vs resident";
  let module E = Dda_verify.Engine in
  let module A = Dda_verify.Arena in
  let module Sym = Dda_verify.Symmetry in
  let hom = H.majority ~degree_bound:2 in
  let line word = G.line (List.init (String.length word) (fun i -> String.make 1 word.[i])) in
  let run ?mem_budget ?symmetry ~regime word () =
    let t0 = mono () in
    let space = Space.explore ?symmetry ?mem_budget ~max_configs:60_000_000 hom (line word) in
    let verdict =
      match regime with
      | `Adversarial -> Decide.adversarial space
      | `Pseudo -> Decide.pseudo_stochastic space
    in
    let seconds = mono () -. t0 in
    let so, bo, rp =
      match Option.bind (Space.engine space) E.spill_stats with
      | Some s -> (s.A.segments_out, s.A.bytes_out, s.A.resident_peak)
      | None -> (0, 0, 0)
    in
    let row =
      {
        sp_backend = (match mem_budget with Some _ -> "budget" | None -> "resident");
        sp_budget = mem_budget;
        sp_configs = space.Space.size;
        sp_edges = space.Space.size * space.Space.node_count;
        sp_seconds = seconds;
        sp_verdict = Format.asprintf "%a" Decide.pp_verdict verdict;
        sp_peak_rss_kb = None;
        sp_segments_out = so;
        sp_bytes_out = bo;
        sp_resident_peak = rp;
      }
    in
    Option.iter E.release (Space.engine space);
    row
  in
  let forked ?mem_budget ?symmetry ~regime word =
    match in_fork (run ?mem_budget ?symmetry ~regime word) with
    | Some (row, rss) -> { row with sp_peak_rss_kb = rss }
    | None -> { (run ?mem_budget ?symmetry ~regime word ()) with sp_peak_rss_kb = peak_rss_kb () }
  in
  let pr word r =
    Format.printf "%-22s %-9s %-10s %9d %9d %8.2fs %11s %8d %s@." word r.sp_backend
      (match r.sp_budget with Some b -> Printf.sprintf "%dM" (b / (1024 * 1024)) | None -> "-")
      r.sp_configs r.sp_edges r.sp_seconds
      (match r.sp_peak_rss_kb with Some kb -> Printf.sprintf "%d" kb | None -> "-")
      r.sp_segments_out r.sp_verdict
  in
  Format.printf "%-22s %-9s %-10s %9s %9s %9s %11s %8s %s@." "instance" "backend" "budget"
    "configs" "edges" "seconds" "peak_rss_kb" "seg_out" "verdict";
  (* the full §6.1 automaton on the n=8 palindromic line under the
     reflection quotient: 11.58 M orbit representatives — resident, the
     edge and group-element arrays alone need GBs; under a 256 MB budget
     the run spills them and completes in comparable wall time.  (Smoke:
     a seconds-long n=4 stand-in.)  Pseudo-stochastic regime: the
     budgeted side exercises the streaming backward reaches. *)
  let word, symmetry, budget =
    if smoke then ("abab", None, 256 * 1024)
    else ("abbaabba", Some (Sym.line 8), 256 * 1024 * 1024)
  in
  let resident = forked ?symmetry ~regime:`Pseudo word in
  pr word resident;
  let budgeted = forked ?symmetry ~mem_budget:budget ~regime:`Pseudo word in
  pr word budgeted;
  let rss_ratio =
    match (resident.sp_peak_rss_kb, budgeted.sp_peak_rss_kb) with
    | Some a, Some b when b > 0 -> Some (float_of_int a /. float_of_int b)
    | _ -> None
  in
  let wall_ratio = budgeted.sp_seconds /. Float.max 1e-9 resident.sp_seconds in
  let identical =
    resident.sp_configs = budgeted.sp_configs
    && resident.sp_edges = budgeted.sp_edges
    && resident.sp_verdict = budgeted.sp_verdict
  in
  Format.printf "rss_ratio: %s (gate: >= 4x)   wall_ratio: %.2fx (gate: <= 2x)   identical: %b@."
    (match rss_ratio with Some r -> Printf.sprintf "%.2fx" r | None -> "n/a")
    wall_ratio identical;
  (* the budgeted row doubles as the "n=8 completes under a budget" row *)
  let n8 = if smoke then None else Some (word, budgeted) in
  spill_bench_result :=
    Some
      {
        spb_instance =
          Printf.sprintf "s6.1 line n=%d %s%s" (String.length word) word
            (match symmetry with Some _ -> " (reduced)" | None -> "");
        spb_resident = resident;
        spb_budgeted = budgeted;
        spb_rss_ratio = rss_ratio;
        spb_wall_ratio = wall_ratio;
        spb_identical = identical;
        spb_n8 = n8;
      }

(* ------------------------------------------------------------------ *)
(* E1 / E2: the Figure 1 decision-power tables                          *)
(* ------------------------------------------------------------------ *)

let experiment_figure1 () =
  section "E1  Figure 1 (middle): decision power on arbitrary graphs";
  let max_nodes = if smoke then 3 else 4 in
  let t = Dda_core.Figure1.arbitrary_table ~max_nodes () in
  Format.printf "%a@." Dda_core.Figure1.pp_table t;
  section "E2  Figure 1 (right): decision power on bounded-degree graphs";
  let t' = Dda_core.Figure1.bounded_table ~max_nodes () in
  Format.printf "%a@." Dda_core.Figure1.pp_table t';
  let all = t @ t' in
  let ok = List.length (List.filter (fun c -> c.Dda_core.Figure1.agrees) all) in
  Format.printf "summary: %d/%d cells agree with the paper@." ok (List.length all)

(* ------------------------------------------------------------------ *)
(* E3: Figure 2 — weak broadcasts and the Lemma 4.7 simulation overhead  *)
(* ------------------------------------------------------------------ *)

type abx = Xa | Xb | Xx

let example_4_6 : (char, abx) WB.t =
  let base =
    Machine.create ~name:"ex4.6" ~beta:1
      ~init:(fun l -> if l = 'b' then Xb else Xx)
      ~delta:(fun q n -> if q = Xx && N.present n Xa then Xa else q)
      ~accepting:(fun _ -> true)
      ~rejecting:(fun _ -> false)
      ()
  in
  let initiate = function Xa -> Some (Xa, 0) | Xb -> Some (Xb, 1) | Xx -> None in
  let respond f q =
    if f = 0 then (if q = Xx then Xa else q)
    else match q with Xb -> Xa | Xa -> Xx | Xx -> Xx
  in
  WB.create ~base ~initiate ~respond ~response_count:2

let threshold_wb k =
  Dda_protocols.Cutoff_broadcast.weak_broadcast_machine ~alphabet:[ "a"; "b" ] ~k
    (Dda_presburger.Predicate.at_least "a" k)

let experiment_broadcast_overhead () =
  section "E3  Figure 2: weak broadcasts; native vs Lemma 4.7-compiled cost";
  (* Example 4.6 does not converge (its broadcasts fire forever), so its
     Figure 2 metric is the cost of one simulated broadcast round: the mean
     number of fine-grained steps between consecutive configurations with
     all agents back in phase 0. *)
  Format.printf "%-28s %10s %14s %8s@." "instance" "rounds" "steps/round" "";
  List.iter
    (fun (name, labels) ->
      let g = G.line labels in
      let n = G.nodes g in
      let compiled = WB.compile example_4_6 in
      let rounds = ref 0 in
      let total = ref 0 in
      let phase0 c =
        Array.for_all (function WB.Base _ -> true | WB.Mid _ -> false) (Config.to_array c)
      in
      let was_mid = ref false in
      let on_step ~step:_ ~selection:_ ~before:_ ~after =
        incr total;
        if phase0 after then begin
          if !was_mid then incr rounds;
          was_mid := false
        end
        else was_mid := true
      in
      ignore
        (Run.simulate ~on_step ~max_steps:50_000 compiled g (Scheduler.random_exclusive ~n ~seed:9));
      Format.printf "%-28s %10d %14.1f@." name !rounds
        (float_of_int !total /. float_of_int (max 1 !rounds)))
    [
      ("ex4.6 line n=5", [ 'b'; 'x'; 'x'; 'x'; 'b' ]);
      ("ex4.6 line n=9", [ 'b'; 'x'; 'x'; 'x'; 'x'; 'x'; 'x'; 'x'; 'b' ]);
    ];
  Format.printf "%-28s %10s %14s %8s@." "instance" "native" "compiled" "ratio";
  (* threshold protocol: steps for the verdict to settle *)
  List.iter
    (fun k ->
      let wb = threshold_wb k in
      let labels = List.init (2 * k) (fun i -> if i mod 2 = 0 then "a" else "b") in
      let g = G.cycle labels in
      let n = G.nodes g in
      let _, native = WB.simulate_random ~seed:5 ~max_steps:500_000 wb g in
      let compiled = WB.compile wb in
      let r = Run.simulate ~max_steps:5_000_000 compiled g (Scheduler.random_exclusive ~n ~seed:5) in
      let settled = match r.Run.settled_at with Some t -> t | None -> r.Run.steps_taken in
      Format.printf "%-28s %10d %14d %7.1fx@."
        (Printf.sprintf "threshold a>=%d cycle n=%d" k n)
        native settled
        (float_of_int settled /. float_of_int (max 1 native)))
    (if smoke then [ 2 ] else [ 2; 3 ])

(* ------------------------------------------------------------------ *)
(* E4: Lemma 3.1 — the chain construction defeats halting automata       *)
(* ------------------------------------------------------------------ *)

type halt = Fresh of char | AccH | RejH

let naive_halting : (char, halt) Machine.t =
  Machine.halting
    (Machine.create ~name:"naive-halting" ~beta:1
       ~init:(fun l -> Fresh l)
       ~delta:(fun q n ->
         match q with
         | Fresh 'a'
           when not (N.exists_where (function Fresh c -> c <> 'a' | RejH -> true | AccH -> false) n)
           -> AccH
         | Fresh _ -> RejH
         | other -> other)
       ~accepting:(fun q -> q = AccH)
       ~rejecting:(fun q -> q = RejH)
       ())

let experiment_chain () =
  section "E4  Lemma 3.1 / Figure 3: halting automata on the chained graph GH";
  let g = G.cycle [ 'a'; 'a'; 'a' ] and h = G.cycle [ 'b'; 'b'; 'b' ] in
  let verdict graph =
    let r = Run.simulate ~max_steps:50_000 naive_halting graph (Scheduler.round_robin ~n:(G.nodes graph)) in
    match r.Run.verdict with `Accepting -> "accept" | `Rejecting -> "reject" | `Mixed -> "MIXED"
  in
  let gh, _ =
    G.chain_of_copies ~g ~g_edge:(Option.get (G.find_cycle_edge g)) ~g_copies:3 ~h
      ~h_edge:(Option.get (G.find_cycle_edge h)) ~h_copies:3
  in
  Format.printf "G(aaa): %s   H(bbb): %s   GH(%d nodes): %s   -- paper predicts MIXED@."
    (verdict g) (verdict h) (G.nodes gh) (verdict gh)

(* ------------------------------------------------------------------ *)
(* E5: Lemmas 3.2/3.4 — covering and cutoff indistinguishability          *)
(* ------------------------------------------------------------------ *)

let mixer : (char, int) Machine.t =
  Machine.create ~name:"mixer" ~beta:2
    ~init:(fun l -> if l = 'a' then 1 else 0)
    ~delta:(fun q n ->
      let weighted = List.fold_left (fun acc (s, c) -> acc + (s * c)) 0 n in
      (q + weighted) mod 5)
    ~accepting:(fun q -> q < 3)
    ~rejecting:(fun q -> q >= 3)
    ()

let experiment_indistinguishability () =
  section "E5  Lemmas 3.2/3.4: coverings and cutoffs are invisible";
  let labels = [ 'a'; 'b'; 'b'; 'a' ] in
  let base = G.cycle labels in
  List.iter
    (fun fold ->
      let cover = G.cycle_cover ~fold labels in
      let f = G.cycle_cover_map ~fold labels in
      let steps = 20 in
      let run graph =
        let c = ref (Config.initial mixer graph) in
        let all = Listx.range (G.nodes graph) in
        for _ = 1 to steps do
          c := Config.step mixer graph !c all
        done;
        !c
      in
      let cb = run base and cc = run cover in
      let agree =
        List.for_all (fun v -> Config.state cc v = Config.state cb (f v)) (Listx.range (G.nodes cover))
      in
      Format.printf "covering fold=%d: synchronous runs agree along the covering map? %b@." fold agree)
    [ 2; 3; 5 ];
  let trace graph =
    let c = ref (Config.initial mixer graph) in
    let all = Listx.range (G.nodes graph) in
    List.map
      (fun _ ->
        let counts = M.cutoff 3 (Config.state_count !c) in
        c := Config.step mixer graph !c all;
        counts)
      (Listx.range 12)
  in
  let agree =
    List.for_all2 M.equal
      (trace (G.clique [ 'a'; 'a'; 'a'; 'b' ]))
      (trace (G.clique [ 'a'; 'a'; 'a'; 'a'; 'a'; 'b' ]))
  in
  Format.printf "cliques (3a,1b) vs (5a,1b), β=2: capped state counts agree for 12 steps? %b@." agree

(* ------------------------------------------------------------------ *)
(* E6: Lemma 3.5 — computed cutoff bounds                                 *)
(* ------------------------------------------------------------------ *)

type yn = Yes | No

let exists_a_yn : (char, yn) Machine.t =
  Machine.create ~name:"exists-a" ~beta:1
    ~init:(fun l -> if l = 'a' then Yes else No)
    ~delta:(fun q n -> if q = No && N.present n Yes then Yes else q)
    ~accepting:(fun q -> q = Yes)
    ~rejecting:(fun q -> q = No)
    ()

let climber : (unit, int) Machine.t =
  Machine.create ~name:"climber" ~beta:1
    ~init:(fun () -> 0)
    ~delta:(fun q n -> if q < 2 && (N.present n (q + 1) || N.present n 2) then q + 1 else q)
    ~accepting:(fun q -> q = 2)
    ~rejecting:(fun q -> q < 2)
    ()

let experiment_cutoff_bounds () =
  section "E6  Lemma 3.5: cutoff bounds by backward coverability on stars";
  Format.printf "%-22s %8s %14s@." "automaton" "|Q|" "bound K";
  Format.printf "%-22s %8d %14d@." "exists-a" 2 (Cov.cutoff_bound ~states:[ Yes; No ] exists_a_yn);
  Format.printf "%-22s %8d %14d@." "climber" 3 (Cov.cutoff_bound ~states:[ 0; 1; 2 ] climber)

(* ------------------------------------------------------------------ *)
(* E7: Lemma 4.10 — population protocols vs their DAF simulations          *)
(* ------------------------------------------------------------------ *)

let experiment_population_overhead () =
  section "E7  Lemma 4.10: rendez-vous vs search/answer/confirm handshakes";
  let epidemic = Dda_protocols.Pop_examples.epidemic ~target:'a' in
  Format.printf "%-24s %10s %14s %8s@." "graph" "native" "compiled" "ratio";
  List.iter
    (fun n ->
      let labels = List.init n (fun i -> if i = 0 then 'a' else 'b') in
      let g = G.cycle labels in
      let _, native = Pop.simulate_random ~seed:3 ~max_steps:500_000 epidemic g in
      let compiled = Pop.compile epidemic in
      let r = Run.simulate ~max_steps:5_000_000 compiled g (Scheduler.random_exclusive ~n ~seed:3) in
      let settled = match r.Run.settled_at with Some t -> t | None -> r.Run.steps_taken in
      Format.printf "%-24s %10d %14d %7.1fx@."
        (Printf.sprintf "epidemic cycle n=%d" n)
        native settled
        (float_of_int settled /. float_of_int (max 1 native)))
    (if smoke then [ 5 ] else [ 5; 9; 13 ])

(* ------------------------------------------------------------------ *)
(* E8: convergence of the majority algorithms                             *)
(* ------------------------------------------------------------------ *)

let median l =
  let sorted = List.sort compare l in
  List.nth sorted (List.length sorted / 2)

let experiment_convergence () =
  section "E8  Convergence: steps to a settled majority verdict vs n";
  let sizes = if smoke then [ 5 ] else if quick then [ 5; 9; 13 ] else [ 5; 9; 13; 17; 21; 33; 45 ] in
  Format.printf "%-6s %16s %16s %18s %14s@." "n" "§6.1 DAf" "population" "§6.1 (synchronous)"
    "double-rounds";
  List.iter
    (fun n ->
      (* a-minority, so the §6.1 weak-majority machine freezes (rejects) *)
      let labels = List.init n (fun i -> if i mod 3 = 0 then "a" else "b") in
      let g = G.cycle labels in
      let hom = H.weak_majority ~degree_bound:2 in
      let hom_steps =
        median
          (List.map
             (fun seed ->
               let r = Run.simulate ~max_steps:20_000_000 hom g (Scheduler.random_exclusive ~n ~seed) in
               r.Run.steps_taken)
             [ 1; 2; 3 ])
      in
      let sync_steps =
        let r = Run.simulate ~max_steps:20_000_000 hom g (Scheduler.synchronous ~n) in
        r.Run.steps_taken
      in
      let pop = Dda_protocols.Pop_examples.majority_4state in
      let pop_g = G.cycle (List.map (fun l -> if l = "a" then 'a' else 'b') labels) in
      (* the walking tokens keep permuting forever, so convergence is the
         step after which the global verdict never changed *)
      let pop_settle seed =
        match Pop.settle_time ~seed ~max_steps:200_000 pop pop_g with
        | Some (t, _) -> t
        | None -> 200_000
      in
      let pop_steps = median (List.map pop_settle [ 1; 2; 3 ]) in
      let double_rounds =
        let samples =
          Dda_analysis.Census.collect ~project:H.carried_dstate ~every:10
            ~max_steps:20_000_000 hom g (Scheduler.random_exclusive ~n ~seed:1)
        in
        Dda_analysis.Census.rising_edges
          ~present:(function H.C (_, H.LDouble) -> true | _ -> false)
          samples
      in
      Format.printf "%-6d %16d %16d %18d %14d@." n hom_steps pop_steps sync_steps double_rounds)
    sizes;
  Format.printf "@.token-construction DAF (Lemma 5.1), odd-#a on cycles:@.";
  Format.printf "%-6s %16s@." "n" "settled at";
  List.iter
    (fun n ->
      let labels = List.init n (fun i -> if i mod 2 = 0 then 'a' else 'b') in
      let g = G.cycle labels in
      let m = SB.to_daf Dda_protocols.Strong_examples.odd_a in
      let r = Run.simulate ~max_steps:20_000_000 m g (Scheduler.random_exclusive ~n ~seed:4) in
      Format.printf "%-6d %16s@." n
        (match r.Run.settled_at with Some t -> string_of_int t | None -> "-"))
    (if smoke then [ 3 ] else if quick then [ 3; 4 ] else [ 3; 4; 5; 6 ])

(* ------------------------------------------------------------------ *)
(* E9: primality of n (the NL showcase)                                   *)
(* ------------------------------------------------------------------ *)

let experiment_primality () =
  section "E9  prime(n) by broadcast counter machine";
  let module CB = Dda_protocols.Counter_broadcast in
  let protocol = CB.protocol CB.primality in
  Format.printf "%-6s %-8s %-10s %s@." "n" "prime?" "verdict" "method";
  List.iter
    (fun n ->
      let g = G.clique (List.init n (fun _ -> "x")) in
      let space = SB.space ~max_configs:2_000_000 protocol g in
      Format.printf "%-6d %-8b %-10s exact, %d configurations@." n
        (Dda_presburger.Predicate.eval (Dda_presburger.Predicate.size_prime [ "x" ]) (fun _ -> n))
        (Format.asprintf "%a" Decide.pp_verdict (Decide.pseudo_stochastic space))
        space.Space.size)
    (if smoke then [ 3 ] else if quick then [ 3; 4; 5 ] else [ 3; 4; 5; 6 ]);
  let priority_run g =
    let c = ref (SB.initial protocol g) in
    let steps = ref 0 in
    let pick () =
      let arr = Config.to_array !c in
      let best = ref 0 in
      Array.iteri
        (fun i s -> if CB.select_priority s > CB.select_priority arr.(!best) then best := i)
        arr;
      !best
    in
    while (not (SB.quiescent protocol !c)) && !steps < 2_000_000 do
      c := SB.step protocol !c (pick ());
      incr steps
    done;
    (!c, !steps)
  in
  List.iter
    (fun n ->
      let g = G.cycle (List.init n (fun _ -> "x")) in
      let final, steps = priority_run g in
      let verdict =
        if Array.for_all protocol.SB.accepting (Config.to_array final) then "accepts"
        else if Array.for_all protocol.SB.rejecting (Config.to_array final) then "rejects"
        else "mixed"
      in
      Format.printf "%-6d %-8b %-10s priority simulation, %d steps@." n
        (Dda_presburger.Predicate.eval (Dda_presburger.Predicate.size_prime [ "x" ]) (fun _ -> n))
        verdict steps)
    (if smoke then [ 7 ] else if quick then [ 7; 9 ] else [ 7; 9; 11; 13; 17; 19 ])

(* ------------------------------------------------------------------ *)
(* E10: exact adversarial verification of the §6.1 automaton              *)
(* ------------------------------------------------------------------ *)

let experiment_exact_adversarial () =
  section "E10  §6.1 automaton: complete fair-SCC verification under adversarial scheduling";
  let m = H.weak_majority ~degree_bound:2 in
  Format.printf "%-10s %-10s %12s %-12s %-12s@." "line" "expect" "configs" "adversarial" "pseudo-stoch";
  List.iter
    (fun labels ->
      let g = G.line labels in
      let expected = if 2 * List.length (List.filter (fun l -> l = "a") labels) >= List.length labels then "accept" else "reject" in
      match Space.explore ~max_configs:1_200_000 m g with
      | exception Space.Too_large n ->
        Format.printf "%-10s %-10s %12s@." (String.concat "" labels) expected
          (Printf.sprintf "> %d" n)
      | space ->
        Format.printf "%-10s %-10s %12d %-12s %-12s@." (String.concat "" labels) expected
          space.Space.size
          (Format.asprintf "%a" Decide.pp_verdict (Decide.adversarial space))
          (Format.asprintf "%a" Decide.pp_verdict (Decide.pseudo_stochastic space)))
    (if smoke then [ [ "a"; "b"; "b" ]; [ "a"; "b"; "a" ] ]
     else
       [ [ "a"; "b"; "b" ]; [ "a"; "b"; "a" ]; [ "a"; "b"; "a"; "b" ]; [ "a"; "b"; "b"; "a"; "b" ] ]
       @ if quick then [] else [ [ "a"; "b"; "a"; "b"; "a" ] ])

(* ------------------------------------------------------------------ *)
(* E12: the verdict cache — cold vs warm Figure 1 regeneration            *)
(* ------------------------------------------------------------------ *)

type cache_bench = {
  cb_cold : float;
  cb_warm : float;
  cb_cold_hits : int;
  cb_cold_misses : int;
  cb_warm_hits : int;
  cb_warm_misses : int;
}

(* stashed for E11's BENCH_verify.json writer *)
let cache_bench_result : cache_bench option ref = ref None

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let experiment_cache () =
  section "E12  verdict cache: cold vs warm Figure 1 (middle) regeneration";
  let module Batch = Dda_batch.Batch in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dda_bench_cache.%d" (Unix.getpid ()))
  in
  if Sys.file_exists root then rm_rf root;
  let cache = Dda_batch.Store.open_ ~root () in
  let max_nodes = if smoke then 3 else 4 in
  (* the middle table is the exact-verification workload the cache covers;
     the bounded table's headline cells are decided by scheduler
     simulation, which is not a cacheable verdict *)
  let tables () = Dda_core.Figure1.arbitrary_table ~cache ~max_nodes () in
  let timed () =
    Batch.reset_cache_stats ();
    let t0 = mono () in
    let r = tables () in
    let dt = mono () -. t0 in
    let hits, misses = Batch.cache_stats () in
    (r, dt, hits, misses)
  in
  let cold_tables, cold, cold_hits, cold_misses = timed () in
  let warm_tables, warm, warm_hits, warm_misses = timed () in
  rm_rf root;
  let agree = cold_tables = warm_tables in
  let hit_rate = float_of_int warm_hits /. float_of_int (max 1 (warm_hits + warm_misses)) in
  Format.printf "%-6s %10s %8s %8s@." "run" "seconds" "hits" "misses";
  Format.printf "%-6s %9.3fs %8d %8d@." "cold" cold cold_hits cold_misses;
  Format.printf "%-6s %9.3fs %8d %8d@." "warm" warm warm_hits warm_misses;
  Format.printf "warm hit rate: %.1f%%   speedup: %.1fx   tables identical: %b@."
    (100. *. hit_rate) (cold /. warm) agree;
  cache_bench_result :=
    Some
      {
        cb_cold = cold;
        cb_warm = warm;
        cb_cold_hits = cold_hits;
        cb_cold_misses = cold_misses;
        cb_warm_hits = warm_hits;
        cb_warm_misses = warm_misses;
      }

(* ------------------------------------------------------------------ *)
(* E13: the verification service — cold vs warm load over the socket     *)
(* ------------------------------------------------------------------ *)

module Sclient = Dda_service.Client

type service_bench = {
  sb_clients : int;
  sb_per_client : int;
  sb_cold : Sclient.summary;
  sb_warm : Sclient.summary;  (* last warm rep — steady state *)
  sb_warm_seconds : float list;  (* every warm rep's wall clock *)
}

(* stashed for E11's BENCH_verify.json writer *)
let service_bench_result : service_bench option ref = ref None

let experiment_service () =
  section "E13  verification service: cold vs warm load over the wire";
  let module Server = Dda_service.Server in
  let module Sproto = Dda_service.Protocol in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dda_bench_service.%d" (Unix.getpid ()))
  in
  if Sys.file_exists root then rm_rf root;
  Unix.mkdir root 0o700;
  let cache = Dda_batch.Store.open_ ~root:(Filename.concat root "cache") () in
  let sock = Filename.concat root "dda.sock" in
  let clients = if smoke then 4 else 8 in
  let per_client = if smoke then 6 else if quick then 12 else 25 in
  let job protocol graph =
    {
      Dda_batch.Batch.protocol;
      graph;
      regime = Dda_batch.Spec.Pseudo_stochastic;
      max_configs = 200_000;
    }
  in
  (* distinct cache keys, so the cold pass computes every job at least once *)
  let mix =
    [
      job "exists:a" "cycle:abb";
      job "exists:a" "cycle:aabb";
      job "exists:a" "line:abab";
      job "threshold:a,2" "cycle:aab";
      job "threshold:a,2" "line:aabb";
      job "exists:a" "cycle:abab";
    ]
  in
  let cfg =
    {
      Server.default_config with
      addresses = [ Sproto.Unix_socket sock ];
      cache = Some cache;
      workers = 2;
      conn_limit = 8;
    }
  in
  let srv =
    match Server.start cfg with Ok s -> s | Error e -> failwith ("E13 server start: " ^ e)
  in
  let run label =
    match
      Sclient.load (Sproto.Unix_socket sock)
        { Sclient.clients; per_client; mix; deadline_ms = None }
    with
    | Error e -> failwith (Printf.sprintf "E13 %s load: %s" label e)
    | Ok s -> s
  in
  let cold = run "cold" in
  let reps = if smoke then 2 else 3 in
  let warms = List.init reps (fun _ -> run "warm") in
  let warm = List.nth warms (reps - 1) in
  Server.drain srv;
  let st = Server.wait srv in
  rm_rf root;
  Format.printf "%d clients x %d requests over %d distinct jobs (unix socket)@." clients
    per_client (List.length mix);
  Format.printf "%-6s %9s %10s %8s %8s %9s %9s %9s@." "pass" "seconds" "rps" "ok" "cached"
    "p50_ms" "p95_ms" "p99_ms";
  let line name (s : Sclient.summary) =
    Format.printf "%-6s %8.3fs %10.1f %8d %8d %9.3f %9.3f %9.3f@." name s.Sclient.seconds
      s.Sclient.rps s.Sclient.ok s.Sclient.cached s.Sclient.p50_ms s.Sclient.p95_ms
      s.Sclient.p99_ms
  in
  line "cold" cold;
  line "warm" warm;
  Format.printf
    "warm hit rate: %.1f%%   warm/cold rps: %.1fx   server: %d accepted, %d served (%d hits, \
     %d computed)@."
    (100. *. Sclient.hit_rate warm)
    (warm.Sclient.rps /. cold.Sclient.rps)
    st.Server.accepted st.Server.served st.Server.hits st.Server.computed;
  service_bench_result :=
    Some
      {
        sb_clients = clients;
        sb_per_client = per_client;
        sb_cold = cold;
        sb_warm = warm;
        sb_warm_seconds = List.map (fun s -> s.Sclient.seconds) warms;
      }

(* ------------------------------------------------------------------ *)
(* E14: service /2 — pipelined frames over the in-memory verdict tier    *)
(* ------------------------------------------------------------------ *)

type service_v2_bench = {
  s2_clients : int;
  s2_per_client : int;
  s2_pipeline : int;
  s2_cold : Sclient.summary;
  s2_warm : Sclient.summary;  (* last warm rep — steady state *)
  s2_warm_seconds : float list;  (* every warm rep's wall clock *)
  s2_peak_rss_kb : int option;
}

(* stashed for E11's BENCH_verify.json writer *)
let service_v2_bench_result : service_v2_bench option ref = ref None

(* peak_rss_kb is hoisted above E18: here it reports the whole process
   (server, workers and load generator run in-process) *)
let experiment_service_v2 () =
  section "E14  service /2: pipelined binary frames over the in-memory verdict tier";
  let module Server = Dda_service.Server in
  let module Sproto = Dda_service.Protocol in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dda_bench_service2.%d" (Unix.getpid ()))
  in
  if Sys.file_exists root then rm_rf root;
  Unix.mkdir root 0o700;
  let cache = Dda_batch.Store.open_ ~root:(Filename.concat root "cache") ~memo:65536 () in
  let sock = Filename.concat root "dda.sock" in
  (* the E13 mix, so the warm figures compare like for like *)
  let job protocol graph =
    {
      Dda_batch.Batch.protocol;
      graph;
      regime = Dda_batch.Spec.Pseudo_stochastic;
      max_configs = 200_000;
    }
  in
  let mix =
    [
      job "exists:a" "cycle:abb";
      job "exists:a" "cycle:aabb";
      job "exists:a" "line:abab";
      job "threshold:a,2" "cycle:aab";
      job "threshold:a,2" "line:aabb";
      job "exists:a" "cycle:abab";
    ]
  in
  let clients = if smoke then 2 else 4 in
  let pipeline = if smoke then 4 else 16 in
  let per_client = if smoke then 50 else if quick then 5_000 else 25_000 in
  let cfg =
    {
      Server.default_config with
      addresses = [ Sproto.Unix_socket sock ];
      cache = Some cache;
      workers = 2;
      queue_capacity = 4096;
      conn_limit = 2 * pipeline;
    }
  in
  let srv =
    match Server.start cfg with Ok s -> s | Error e -> failwith ("E14 server start: " ^ e)
  in
  let run label ~per_client ~pipeline =
    match
      Sclient.load ~version:2 ~pipeline (Sproto.Unix_socket sock)
        { Sclient.clients; per_client; mix; deadline_ms = None }
    with
    | Error e -> failwith (Printf.sprintf "E14 %s load: %s" label e)
    | Ok s -> s
  in
  (* cold: one-at-a-time over the mix, matching E13's cold shape *)
  let cold = run "cold" ~per_client:(List.length mix * 2) ~pipeline:1 in
  let reps = if smoke then 2 else 3 in
  let warms = List.init reps (fun _ -> run "warm" ~per_client ~pipeline) in
  let warm = List.nth warms (reps - 1) in
  Server.drain srv;
  let st = Server.wait srv in
  let rss = peak_rss_kb () in
  rm_rf root;
  Format.printf
    "%d clients x %d requests, pipeline %d, /2 frames, memo 65536 (unix socket)@." clients
    per_client pipeline;
  Format.printf "%-6s %9s %10s %8s %8s %9s %9s %9s@." "pass" "seconds" "rps" "ok" "cached"
    "p50_ms" "p95_ms" "p99_ms";
  let line name (s : Sclient.summary) =
    Format.printf "%-6s %8.3fs %10.1f %8d %8d %9.3f %9.3f %9.3f@." name s.Sclient.seconds
      s.Sclient.rps s.Sclient.ok s.Sclient.cached s.Sclient.p50_ms s.Sclient.p95_ms
      s.Sclient.p99_ms
  in
  line "cold" cold;
  line "warm" warm;
  (match !service_bench_result with
  | Some sb when sb.sb_warm.Sclient.rps > 0. ->
    Format.printf "warm rps vs E13 (/1, unpipelined): %.1fx@."
      (warm.Sclient.rps /. sb.sb_warm.Sclient.rps)
  | _ -> ());
  Format.printf "warm hit rate: %.1f%%   peak RSS: %s   server: %d served (%d hits)@."
    (100. *. Sclient.hit_rate warm)
    (match rss with Some kb -> Printf.sprintf "%d kB" kb | None -> "n/a")
    st.Server.served st.Server.hits;
  service_v2_bench_result :=
    Some
      {
        s2_clients = clients;
        s2_per_client = per_client;
        s2_pipeline = pipeline;
        s2_cold = cold;
        s2_warm = warm;
        s2_warm_seconds = List.map (fun s -> s.Sclient.seconds) warms;
        s2_peak_rss_kb = rss;
      }

(* ------------------------------------------------------------------ *)
(* E15: observability overhead — access log + stats scraping on vs off   *)
(* ------------------------------------------------------------------ *)

type obs_bench = {
  ob_reps : int;
  ob_log_sample : int;
  ob_rps_off : float list;
  ob_rps_on : float list;
  ob_delta_pct : float;  (* positive = observability cost *)
  ob_gate_ok : bool;  (* delta <= 3% *)
}

(* stashed for E11's BENCH_verify.json writer *)
let obs_bench_result : obs_bench option ref = ref None

let experiment_observability () =
  section "E15  observability overhead: access log + stats scraping on vs off";
  let module Server = Dda_service.Server in
  let module Sproto = Dda_service.Protocol in
  let job protocol graph =
    {
      Dda_batch.Batch.protocol;
      graph;
      regime = Dda_batch.Spec.Pseudo_stochastic;
      max_configs = 200_000;
    }
  in
  let mix =
    [
      job "exists:a" "cycle:abb";
      job "exists:a" "cycle:aabb";
      job "exists:a" "line:abab";
      job "threshold:a,2" "cycle:aab";
      job "threshold:a,2" "line:aabb";
      job "exists:a" "cycle:abab";
    ]
  in
  let clients = 2 in
  let pipeline = if smoke then 4 else 8 in
  let per_client = 2_000 in
  (* measurement windows; the generators run continuously underneath *)
  let window_s = 0.5 in
  let windows = if smoke then 8 else if quick then 12 else 20 in
  (* The observed posture carries the whole plane: a sampled access log and
     a scraper taking the stats verb once per second over fresh connections
     (an aggressive Prometheus cadence).  The sampling rate is the one the
     docs recommend for six-figure request rates -- logging every request at
     ~100k rps writes tens of MB/s, which no deployment does, and the E15
     row records the rate used. *)
  let obs_log_sample = 256 in
  let mk name ~observed =
    let root =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "dda_bench_obs_%s.%d" name (Unix.getpid ()))
    in
    if Sys.file_exists root then rm_rf root;
    Unix.mkdir root 0o700;
    let cache = Dda_batch.Store.open_ ~root:(Filename.concat root "cache") ~memo:65536 () in
    let sock = Filename.concat root "dda.sock" in
    let cfg =
      {
        Server.default_config with
        addresses = [ Sproto.Unix_socket sock ];
        cache = Some cache;
        workers = 2;
        queue_capacity = 4096;
        conn_limit = (2 * pipeline) + 2;
        access_log = (if observed then Some (Filename.concat root "access.jsonl") else None);
        log_sample = obs_log_sample;
      }
    in
    let srv =
      match Server.start cfg with Ok s -> s | Error e -> failwith ("E15 server start: " ^ e)
    in
    (srv, Sproto.Unix_socket sock, root)
  in
  let srv_off, addr_off, root_off = mk "off" ~observed:false in
  let srv_on, addr_on, root_on = mk "on" ~observed:true in
  (* Continuous saturating load on both servers at once, with throughput
     read from each server's own [served] counter over the same wall-clock
     windows.  Timing individual client loads proved hopeless here: which
     load thread entered the race first was worth ~5% of rps on this box,
     and the sign of that bias drifted mid-run, swamping a 3% effect.
     Counter windows are immune: both counters are sampled microseconds
     apart, so every scheduling hiccup lands inside both sides' window. *)
  let stop = Atomic.make false in
  let generator addr () =
    while not (Atomic.get stop) do
      ignore
        (Sclient.load ~version:2 ~pipeline addr
           { Sclient.clients; per_client; mix; deadline_ms = None })
    done
  in
  let gen_off = Thread.create (generator addr_off) () in
  let gen_on = Thread.create (generator addr_on) () in
  let scraper =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          (match Sclient.connect ~version:2 addr_on with
          | Error _ -> ()
          | Ok c ->
            ignore (Sclient.stats c);
            Sclient.close c);
          Thread.delay 1.0
        done)
      ()
  in
  (* let both sides reach saturation and warm their verdict tiers *)
  Thread.delay 1.0;
  let served srv = (Server.stats srv).Server.served in
  let rates =
    List.init windows (fun _ ->
        let o0 = served srv_off and n0 = served srv_on in
        let t0 = mono () in
        Thread.delay window_s;
        let o1 = served srv_off and n1 = served srv_on in
        let dt = mono () -. t0 in
        (float_of_int (o1 - o0) /. dt, float_of_int (n1 - n0) /. dt))
  in
  Atomic.set stop true;
  Thread.join gen_off;
  Thread.join gen_on;
  Thread.join scraper;
  Server.drain srv_off;
  Server.drain srv_on;
  ignore (Server.wait srv_off);
  ignore (Server.wait srv_on);
  rm_rf root_off;
  rm_rf root_on;
  let off = List.map fst rates
  and on = List.map snd rates in
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let deltas = List.map (fun (o, n) -> 100. *. ((o -. n) /. Float.max 1e-9 o)) rates in
  let median l =
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
  in
  let delta = median deltas in
  let ok = delta <= 3.0 in
  Format.printf "%d+%d clients, pipeline %d, %d windows of %.1fs (simultaneous, counter-sampled)@."
    clients clients pipeline windows window_s;
  Format.printf "rps off: %.1f   rps on (access log 1/%d + 1 Hz stats scrape): %.1f@." (mean off)
    obs_log_sample (mean on);
  Format.printf "observability cost: %+.2f%% rps (median across windows)   gate (<= 3%%): %s@."
    delta
    (if ok then "OK" else "FAIL");
  obs_bench_result :=
    Some
      {
        ob_reps = windows;
        ob_log_sample = obs_log_sample;
        ob_rps_off = off;
        ob_rps_on = on;
        ob_delta_pct = delta;
        ob_gate_ok = ok;
      }

(* ------------------------------------------------------------------ *)
(* E16: routed service — consistent-hash fan-out over dda serve backends *)
(* ------------------------------------------------------------------ *)

type router_bench = {
  rb_backends : int;
  rb_clients : int;
  rb_per_client : int;
  rb_pipeline : int;
  rb_total_requests : int;
  rb_cold : Sclient.summary;
  rb_warm : Sclient.summary;
  rb_warm_seconds : float list;
  rb_forwarded : int;
  rb_retries : int;
  rb_ejections : int;
}

(* stashed for E11's BENCH_verify.json writer *)
let router_bench_result : router_bench option ref = ref None

let experiment_router () =
  section "E16  routed service: consistent-hash fan-out over two dda serve backends";
  let module Server = Dda_service.Server in
  let module Router = Dda_service.Router in
  let module Sproto = Dda_service.Protocol in
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dda_bench_router.%d" (Unix.getpid ()))
  in
  if Sys.file_exists root then rm_rf root;
  Unix.mkdir root 0o700;
  (* Each tier runs in its own domain so that on a multicore box the
     router loop and both backend loops execute in parallel (threads
     spawned inside a domain stay on that domain's runtime lock); on a
     single-core box the domains are merely time-sliced and the routed
     figures measure the per-request overhead of the extra hop instead. *)
  let spawn_server cfg =
    let cell = Atomic.make None in
    let d =
      Domain.spawn (fun () ->
          match Server.start cfg with
          | Error e -> Atomic.set cell (Some (Error e))
          | Ok srv ->
            Atomic.set cell (Some (Ok srv));
            ignore (Server.wait srv))
    in
    let rec sync () =
      match Atomic.get cell with
      | None ->
        Thread.delay 0.01;
        sync ()
      | Some r -> r
    in
    match sync () with
    | Ok srv -> (srv, d)
    | Error e ->
      Domain.join d;
      failwith ("E16 backend start: " ^ e)
  in
  let spawn_router cfg =
    let cell = Atomic.make None in
    let d =
      Domain.spawn (fun () ->
          match Router.start cfg with
          | Error e -> Atomic.set cell (Some (Error e))
          | Ok rt ->
            Atomic.set cell (Some (Ok rt));
            ignore (Router.wait rt))
    in
    let rec sync () =
      match Atomic.get cell with
      | None ->
        Thread.delay 0.01;
        sync ()
      | Some r -> r
    in
    match sync () with
    | Ok rt -> (rt, d)
    | Error e ->
      Domain.join d;
      failwith ("E16 router start: " ^ e)
  in
  let n_backends = 2 in
  let pipeline = if smoke then 4 else 16 in
  let bsock i = Filename.concat root (Printf.sprintf "b%d.sock" i) in
  let backends =
    List.init n_backends (fun i ->
        spawn_server
          {
            Server.default_config with
            addresses = [ Sproto.Unix_socket (bsock i) ];
            cache =
              Some
                (Dda_batch.Store.open_
                   ~root:(Filename.concat root (Printf.sprintf "cache%d" i))
                   ~memo:65536 ());
            workers = 2;
            queue_capacity = 4096;
            conn_limit = 4 * pipeline;
          })
  in
  let rsock = Filename.concat root "router.sock" in
  let rt, rd =
    spawn_router
      {
        Router.default_config with
        listen = [ Sproto.Unix_socket rsock ];
        backends = List.init n_backends (fun i -> Sproto.Unix_socket (bsock i));
        backend_window = 2 * pipeline;
        backend_backlog = 65536;
      }
  in
  (* the E13/E14 mix: six distinct specs spread over the ring, and the
     warm figures compare like for like with the single-backend E14 row *)
  let job protocol graph =
    {
      Dda_batch.Batch.protocol;
      graph;
      regime = Dda_batch.Spec.Pseudo_stochastic;
      max_configs = 200_000;
    }
  in
  let mix =
    [
      job "exists:a" "cycle:abb";
      job "exists:a" "cycle:aabb";
      job "exists:a" "line:abab";
      job "threshold:a,2" "cycle:aab";
      job "threshold:a,2" "line:aabb";
      job "exists:a" "cycle:abab";
    ]
  in
  (* the row targets >= 1M routed requests outside CI smoke *)
  let clients = if smoke then 2 else 8 in
  let per_client = if smoke then 60 else 125_000 in
  let run label ~per_client ~pipeline =
    match
      Sclient.load ~version:2 ~pipeline (Sproto.Unix_socket rsock)
        { Sclient.clients; per_client; mix; deadline_ms = None }
    with
    | Error e -> failwith (Printf.sprintf "E16 %s load: %s" label e)
    | Ok s -> s
  in
  (* cold: every spec computed once on its owning backend *)
  let cold = run "cold" ~per_client:(List.length mix * 2) ~pipeline:1 in
  let warm = run "warm" ~per_client ~pipeline in
  let rstats = Router.stats rt in
  Router.drain rt;
  Domain.join rd;
  List.iter
    (fun (srv, d) ->
      Server.drain srv;
      Domain.join d)
    backends;
  rm_rf root;
  let total = cold.Sclient.requests + warm.Sclient.requests in
  Format.printf
    "%d backends behind one router; %d clients x %d requests, pipeline %d, /2 end to end@."
    n_backends clients per_client pipeline;
  Format.printf "%-6s %9s %10s %8s %8s %9s %9s %9s@." "pass" "seconds" "rps" "ok" "cached"
    "p50_ms" "p95_ms" "p99_ms";
  let line name (s : Sclient.summary) =
    Format.printf "%-6s %8.3fs %10.1f %8d %8d %9.3f %9.3f %9.3f@." name s.Sclient.seconds
      s.Sclient.rps s.Sclient.ok s.Sclient.cached s.Sclient.p50_ms s.Sclient.p95_ms
      s.Sclient.p99_ms
  in
  line "cold" cold;
  line "warm" warm;
  Format.printf
    "total %d requests, warm hit rate %.1f%%; router: %d forwarded, %d retried, %d ejection(s)@."
    total
    (100. *. Sclient.hit_rate warm)
    rstats.Router.forwarded rstats.Router.retries rstats.Router.ejections;
  (match !service_v2_bench_result with
  | Some e14 when e14.s2_warm.Sclient.rps > 0. ->
    Format.printf "aggregate warm rps vs single-backend E14: %.2fx%s@."
      (warm.Sclient.rps /. e14.s2_warm.Sclient.rps)
      (if Domain.recommended_domain_count () < 2 then
         "  (single-core box: all tiers time-slice one CPU, so the hop is pure overhead)"
       else "")
  | _ -> ());
  router_bench_result :=
    Some
      {
        rb_backends = n_backends;
        rb_clients = clients;
        rb_per_client = per_client;
        rb_pipeline = pipeline;
        rb_total_requests = total;
        rb_cold = cold;
        rb_warm = warm;
        rb_warm_seconds = [ warm.Sclient.seconds ];
        rb_forwarded = rstats.Router.forwarded;
        rb_retries = rstats.Router.retries;
        rb_ejections = rstats.Router.ejections;
      }

(* ------------------------------------------------------------------ *)
(* E17: the symbolic engine — one family verdict vs per-instance work     *)
(* ------------------------------------------------------------------ *)

type symbolic_bench = {
  sy_family : string;
  sy_protocol : string;
  (* regime name, family verdict, wall-clock of every rep *)
  sy_regimes : (string * Dda_symbolic.Certify.t * float list) list;
  (* n, explicit configs, explicit seconds (explore + decide) *)
  sy_explicit : (int * int * float) list;
  sy_hit_n : int;  (* instance size answered from the family entry *)
  sy_hit_seconds : float;
}

(* stashed for E11's BENCH_verify.json writer *)
let symbolic_bench_result : symbolic_bench option ref = ref None

let experiment_symbolic () =
  section "E17  symbolic engine: one family verdict vs explicit per-instance decisions";
  let module Batch = Dda_batch.Batch in
  let module Certify = Dda_symbolic.Certify in
  let module Family = Dda_symbolic.Family in
  let m = Dda_protocols.Cutoff_one.exists_label ~alphabet:[ "a"; "b" ] "a" in
  let fam_spec = "star:ba*" in
  let fam = match Family.parse fam_spec with Ok f -> f | Error e -> failwith e in
  let reps = if smoke then 1 else 3 in
  let time f =
    let t0 = mono () in
    let r = f () in
    (r, mono () -. t0)
  in
  (* the family verdict: every instance size at once, certified by the
     Lemma 3.5 coverability cutoff *)
  Format.printf "%-18s %-10s %7s %11s %7s %8s %9s@." "regime" "verdict" "from_n"
    "checked_to" "cutoff" "configs" "seconds";
  let fam_rows =
    List.map
      (fun (name, regime) ->
        let runs =
          List.init reps (fun _ ->
              time (fun () ->
                  match Certify.decide_family ~max_configs:400_000 ~regime m fam with
                  | Ok fv -> fv
                  | Error (`Too_large n) ->
                    failwith (Printf.sprintf "E17 %s: bounded out at %d" name n)
                  | Error (`Unsupported msg) -> failwith ("E17 " ^ name ^ ": " ^ msg)))
        in
        let fv = fst (List.hd runs) in
        let times = List.map snd runs in
        let median =
          let s = List.sort compare times in
          List.nth s (List.length s / 2)
        in
        Format.printf "%-18s %-10s %7d %11d %7s %8d %8.3fs@." name
          (Format.asprintf "%a" Decide.pp_verdict fv.Certify.verdict)
          fv.Certify.from_n fv.Certify.checked_to
          (match fv.Certify.certificate with
          | Certify.Cutoff k -> Printf.sprintf "K=%d" k
          | Certify.Window w -> Printf.sprintf "w=%d" w)
          fv.Certify.configs median;
        (name, fv, times))
      [ ("adversarial", Decide.Adversarial); ("pseudo_stochastic", Decide.Pseudo_stochastic) ]
  in
  (* the explicit engine's view of the same family: one instance at a time,
     |Q|^n configurations each *)
  let explicit_ns = if smoke then [ 6; 8 ] else if quick then [ 6; 10; 14 ] else [ 6; 12; 18 ] in
  let explicit_rows =
    List.map
      (fun n ->
        let g = Family.instance fam n in
        let (configs, verdict), seconds =
          time (fun () ->
              let space = Space.explore ~max_configs:6_000_000 m g in
              (space.Space.size, Decide.adversarial space))
        in
        Format.printf "explicit n=%-6d %-10s %36d %8.3fs@." n
          (Format.asprintf "%a" Decide.pp_verdict verdict)
          configs seconds;
        (n, configs, seconds))
      explicit_ns
  in
  (* one family entry in the store answers any larger instance as a cache
     hit — the memo-tier path `dda verify` reports as `tier: family` *)
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dda_bench_symbolic.%d" (Unix.getpid ()))
  in
  if Sys.file_exists root then rm_rf root;
  let cache = Dda_batch.Store.open_ ~root () in
  (match Batch.decide_family ~cache ~count:false ~regime:Dda_batch.Spec.Adversarial
           ~max_configs:400_000 m fam
   with
  | Ok _ -> ()
  | Error e -> failwith ("E17 cache seed: " ^ e));
  let machine_key = Dda_batch.Fingerprint.machine ~labels:(Family.alphabet fam) m in
  let hit_n = 40 in
  let hit, hit_seconds =
    time (fun () ->
        Batch.family_hit ~cache ~machine_key ~regime:Dda_batch.Spec.Adversarial
          ~max_configs:400_000
          (Family.instance_spec fam hit_n))
  in
  (match hit with
  | Some (_, _) ->
    Format.printf "family hit: n=%d answered from the family entry in %.6fs (tier: family)@."
      hit_n hit_seconds
  | None -> failwith "E17: family entry did not answer the concrete instance");
  rm_rf root;
  symbolic_bench_result :=
    Some
      {
        sy_family = fam_spec;
        sy_protocol = "exists:a";
        sy_regimes = fam_rows;
        sy_explicit = explicit_rows;
        sy_hit_n = hit_n;
        sy_hit_seconds = hit_seconds;
      }

(* ------------------------------------------------------------------ *)
(* E11: the exploration engine vs the legacy explorer (BENCH_verify.json) *)
(* ------------------------------------------------------------------ *)

type bench_row = {
  r_instance : string;
  r_backend : string;
  r_configs : int;
  r_edges : int;
  r_seconds : float;  (* median *)
  r_times : float list;
  r_speedup : float option;
  r_verdict : string;
  r_stats : Dda_verify.Engine.stats option;  (* None for the legacy backend *)
  r_peak_rss_kb : int option;  (* the row's forked child's own VmHWM *)
}

let memo_hit_rate (s : Dda_verify.Engine.stats) =
  if s.Dda_verify.Engine.delta_lookups = 0 then 0.
  else
    float_of_int (s.Dda_verify.Engine.delta_lookups - s.Dda_verify.Engine.delta_evals)
    /. float_of_int s.Dda_verify.Engine.delta_lookups

(* Work balance across the effective worker slots: items of the busiest
   slot over a perfectly even split.  1.0 = balanced; 1/jobs = one slot did
   everything (i.e. the parallel gate fell back to sequential). *)
let domain_utilisation (s : Dda_verify.Engine.stats) =
  let items = s.Dda_verify.Engine.domain_items in
  let total = Array.fold_left ( + ) 0 items in
  let busiest = Array.fold_left max 0 items in
  if busiest = 0 then 1.
  else float_of_int total /. (float_of_int busiest *. float_of_int (Array.length items))

(* measured early (fork-per-row needs a domain-free process, see [in_fork]);
   written to BENCH_verify.json by [write_bench_json] at the end of the run *)
let verify_rows : bench_row list ref = ref []

let experiment_verify_bench () =
  section "E11  exploration engine: legacy vs packed vs packed+symmetry";
  let module Sym = Dda_verify.Symmetry in
  let hom = H.weak_majority ~degree_bound:2 in
  let exists_m = Dda_protocols.Cutoff_one.exists_label ~alphabet:[ "a"; "b" ] "a" in
  let line word = G.line (List.init (String.length word) (fun i -> String.make 1 word.[i])) in
  let ring word = G.cycle (List.init (String.length word) (fun i -> String.make 1 word.[i])) in
  (* one benchmark row: time the exploration (median of [reps]), then decide *)
  let measure ~reps explore =
    ignore (explore ()) (* warm-up *);
    let times =
      List.init reps (fun _ ->
          let t0 = mono () in
          ignore (explore ());
          mono () -. t0)
    in
    let space = explore () in
    let sorted = List.sort compare times in
    (space, List.nth sorted (List.length sorted / 2), times)
  in
  let rows = verify_rows in
  (* each row measures in a forked child so peak_rss_kb is per-row, not the
     running maximum over every experiment so far (note the baseline caveat
     on [in_fork]: the child inherits the parent's RSS at fork) *)
  let row ~instance ~backend ~reps ~baseline explore =
    let compute () =
      let space, seconds, times = measure ~reps explore in
      let verdict = Format.asprintf "%a" Decide.pp_verdict (Decide.adversarial space) in
      let stats = Option.map (fun e -> e.Dda_verify.Engine.stats) (Space.engine space) in
      (space.Space.size, space.Space.size * space.Space.node_count, seconds, times, verdict, stats)
    in
    let (configs, edges, seconds, times, verdict, stats), rss =
      match in_fork compute with
      | Some (v, rss) -> (v, rss)
      | None -> (compute (), peak_rss_kb ())
    in
    let speedup = Option.map (fun base -> base /. seconds) baseline in
    Format.printf "%-24s %-14s %10d %10d %9.3fs %-10s %-8s %-7s %-5s %s@." instance backend
      configs edges seconds verdict
      (match speedup with Some s -> Printf.sprintf "%.1fx" s | None -> "-")
      (match stats with Some s -> Printf.sprintf "%.1f%%" (100. *. memo_hit_rate s) | None -> "-")
      (match stats with
      | Some s when Array.length s.Dda_verify.Engine.domain_items > 1 ->
        Printf.sprintf "%.2f" (domain_utilisation s)
      | _ -> "-")
      (match rss with Some kb -> Printf.sprintf "%d" kb | None -> "-");
    rows :=
      {
        r_instance = instance;
        r_backend = backend;
        r_configs = configs;
        r_edges = edges;
        r_seconds = seconds;
        r_times = times;
        r_speedup = speedup;
        r_verdict = verdict;
        r_stats = stats;
        r_peak_rss_kb = rss;
      }
      :: !rows;
    seconds
  in
  Format.printf "%-24s %-14s %10s %10s %10s %-10s %-8s %-7s %-5s %s@." "instance" "backend"
    "configs" "edges" "seconds" "verdict" "speedup" "memo%" "util" "rss_kb";
  let budget = 6_000_000 in
  let bench_instance ~instance ~reps ?symmetry m g =
    let legacy = row ~instance ~backend:"legacy" ~reps ~baseline:None (fun () ->
        Space.explore_legacy ~max_configs:budget m g)
    in
    ignore
      (row ~instance ~backend:"engine" ~reps ~baseline:(Some legacy) (fun () ->
           Space.explore ~max_configs:budget m g));
    ignore
      (row ~instance ~backend:"engine-j2" ~reps ~baseline:(Some legacy) (fun () ->
           Space.explore ~jobs:2 ~max_configs:budget m g));
    match symmetry with
    | None -> ()
    | Some s ->
      ignore
        (row ~instance ~backend:"engine+sym" ~reps ~baseline:(Some legacy) (fun () ->
             Space.explore ~symmetry:s ~max_configs:budget m g))
  in
  if smoke then
    bench_instance ~instance:"s6.1 line n=4 abab" ~reps:1 ~symmetry:(Sym.line 4) hom (line "abab")
  else begin
    (* the E10 exploration bench of the acceptance criteria *)
    bench_instance ~instance:"s6.1 line n=5 abbab" ~reps:3 hom (line "abbab");
    (* palindromic word: the reflection quotient actually merges orbits *)
    bench_instance ~instance:"s6.1 line n=5 ababa" ~reps:3 ~symmetry:(Sym.line 5) hom (line "ababa");
    bench_instance ~instance:"exists-a ring n=9" ~reps:3 ~symmetry:(Sym.cycle 9) exists_m
      (ring "abbabbabb");
    if not quick then
      (* engine-only frontier: legacy needs > 9 minutes here *)
      ignore
        (row ~instance:"s6.1 line n=7 abbabba" ~backend:"engine+sym" ~reps:1 ~baseline:None
           (fun () -> Space.explore ~symmetry:(Sym.line 7) ~max_configs:budget hom (line "abbabba")))
  end

(* machine-readable perf trajectory; runs at the very end so the section
   refs stashed by the other experiments are all populated *)
let write_bench_json () =
  let rows = verify_rows in
  let oc = open_out "BENCH_verify.json" in
  let out = Format.formatter_of_out_channel oc in
  let json_escape s =
    String.concat "" (List.map (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
        (List.init (String.length s) (String.get s)))
  in
  Format.fprintf out "{@.  \"bench\": \"verify\",@.  \"mode\": \"%s\",@.  \"rows\": [@."
    (if smoke then "smoke" else if quick then "quick" else "full");
  List.iteri
    (fun i r ->
      let module E = Dda_verify.Engine in
      let metrics =
        match r.r_stats with
        | None -> ""
        | Some s ->
          Printf.sprintf
            ", \"memo_hit_rate\": %.4f, \"peak_frontier\": %d, \"waves\": %d, \
             \"domain_items\": [%s], \"domain_utilisation\": %.4f"
            (memo_hit_rate s) s.E.peak_frontier s.E.waves
            (String.concat ", " (List.map string_of_int (Array.to_list s.E.domain_items)))
            (domain_utilisation s)
      in
      Format.fprintf out
        "    {\"instance\": \"%s\", \"backend\": \"%s\", \"configs\": %d, \"edges\": %d, \
         \"seconds\": %.4f, \"seconds_summary\": %s, \"speedup_vs_legacy\": %s, \
         \"peak_rss_kb\": %s, \"verdict\": \"%s\"%s}%s@."
        (json_escape r.r_instance) (json_escape r.r_backend) r.r_configs r.r_edges r.r_seconds
        (Dda_analysis.Stats.summary_json (Dda_analysis.Stats.summarise r.r_times))
        (match r.r_speedup with Some s -> Printf.sprintf "%.2f" s | None -> "null")
        (match r.r_peak_rss_kb with Some kb -> string_of_int kb | None -> "null")
        (json_escape r.r_verdict) metrics
        (if i = List.length !rows - 1 then "" else ","))
    (List.rev !rows);
  let sections =
    (match !spill_bench_result with
    | None -> []
    | Some sp ->
      let spill_row r =
        Printf.sprintf
          "{\"backend\": \"%s\", \"mem_budget\": %s, \"configs\": %d, \"edges\": %d, \
           \"seconds\": %.4f, \"peak_rss_kb\": %s, \"segments_out\": %d, \"bytes_out\": %d, \
           \"resident_peak\": %d, \"verdict\": \"%s\"}"
          r.sp_backend
          (match r.sp_budget with Some b -> string_of_int b | None -> "null")
          r.sp_configs r.sp_edges r.sp_seconds
          (match r.sp_peak_rss_kb with Some kb -> string_of_int kb | None -> "null")
          r.sp_segments_out r.sp_bytes_out r.sp_resident_peak (json_escape r.sp_verdict)
      in
      [
        Printf.sprintf
          "\"spill\": {\"instance\": \"%s\", \"resident\": %s, \"budgeted\": %s, \
           \"rss_ratio\": %s, \"wall_ratio\": %.2f, \"identical\": %b, \
           \"gate_rss_4x_ok\": %s, \"gate_wall_2x_ok\": %b%s}"
          (json_escape sp.spb_instance) (spill_row sp.spb_resident) (spill_row sp.spb_budgeted)
          (match sp.spb_rss_ratio with Some r -> Printf.sprintf "%.2f" r | None -> "null")
          sp.spb_wall_ratio sp.spb_identical
          (match sp.spb_rss_ratio with Some r -> string_of_bool (r >= 4.) | None -> "null")
          (sp.spb_wall_ratio <= 2.)
          (match sp.spb_n8 with
          | None -> ""
          | Some (w, r) ->
            Printf.sprintf ", \"n8\": {\"word\": \"%s\", \"row\": %s}" (json_escape w)
              (spill_row r));
      ])
    @ (match !cache_bench_result with
    | None -> []
    | Some cb ->
      [
        Printf.sprintf
          "\"cache\": {\"cold_seconds\": %.4f, \"warm_seconds\": %.4f, \"speedup\": %.2f, \
           \"cold_hits\": %d, \"cold_misses\": %d, \"warm_hits\": %d, \"warm_misses\": %d, \
           \"warm_hit_rate\": %.4f}"
          cb.cb_cold cb.cb_warm
          (cb.cb_cold /. cb.cb_warm)
          cb.cb_cold_hits cb.cb_cold_misses cb.cb_warm_hits cb.cb_warm_misses
          (float_of_int cb.cb_warm_hits
          /. float_of_int (max 1 (cb.cb_warm_hits + cb.cb_warm_misses)));
      ])
    @
    let pass (s : Sclient.summary) =
      Printf.sprintf
        "{\"seconds\": %.4f, \"rps\": %.1f, \"ok\": %d, \"cached\": %d, \"bounded\": %d, \
         \"rejected\": %d, \"errors\": %d, \"hit_rate\": %.4f, \"p50_ms\": %.3f, \
         \"p95_ms\": %.3f, \"p99_ms\": %.3f}"
        s.Sclient.seconds s.Sclient.rps s.Sclient.ok s.Sclient.cached s.Sclient.bounded
        s.Sclient.rejected s.Sclient.errors (Sclient.hit_rate s) s.Sclient.p50_ms
        s.Sclient.p95_ms s.Sclient.p99_ms
    in
    (match !service_bench_result with
    | None -> []
    | Some sb ->
      [
        Printf.sprintf
          "\"service\": {\"clients\": %d, \"per_client\": %d, \"warm_speedup\": %.2f, \
           \"seconds_summary\": %s, \"cold\": %s, \"warm\": %s}"
          sb.sb_clients sb.sb_per_client
          (sb.sb_warm.Sclient.rps /. Float.max 1e-9 sb.sb_cold.Sclient.rps)
          (Dda_analysis.Stats.summary_json (Dda_analysis.Stats.summarise sb.sb_warm_seconds))
          (pass sb.sb_cold) (pass sb.sb_warm);
      ])
    @
    (match !service_v2_bench_result with
    | None -> []
    | Some sb ->
      [
        Printf.sprintf
          "\"service_v2\": {\"clients\": %d, \"per_client\": %d, \"pipeline\": %d, \
           \"peak_rss_kb\": %s, \"warm_rps_vs_e13\": %s, \"seconds_summary\": %s, \
           \"cold\": %s, \"warm\": %s}"
          sb.s2_clients sb.s2_per_client sb.s2_pipeline
          (match sb.s2_peak_rss_kb with Some kb -> string_of_int kb | None -> "null")
          (match !service_bench_result with
          | Some e13 when e13.sb_warm.Sclient.rps > 0. ->
            Printf.sprintf "%.2f" (sb.s2_warm.Sclient.rps /. e13.sb_warm.Sclient.rps)
          | _ -> "null")
          (Dda_analysis.Stats.summary_json (Dda_analysis.Stats.summarise sb.s2_warm_seconds))
          (pass sb.s2_cold) (pass sb.s2_warm);
      ])
    @ (match !obs_bench_result with
      | None -> []
      | Some ob ->
        [
          Printf.sprintf
            "\"observability\": {\"windows\": %d, \"log_sample\": %d, \"rps_off\": %s, \
             \"rps_on\": %s, \"delta_pct\": %.2f, \"gate_3pct_ok\": %b}"
            ob.ob_reps ob.ob_log_sample
            (Dda_analysis.Stats.summary_json (Dda_analysis.Stats.summarise ob.ob_rps_off))
            (Dda_analysis.Stats.summary_json (Dda_analysis.Stats.summarise ob.ob_rps_on))
            ob.ob_delta_pct ob.ob_gate_ok;
        ])
    @ (match !router_bench_result with
      | None -> []
      | Some rb ->
        [
          Printf.sprintf
            "\"router\": {\"backends\": %d, \"clients\": %d, \"per_client\": %d, \
             \"pipeline\": %d, \"total_requests\": %d, \"warm_hit_rate\": %.4f, \
             \"warm_rps_vs_e14\": %s, \"forwarded\": %d, \"retries\": %d, \"ejections\": %d, \
             \"cold\": %s, \"warm\": %s}"
            rb.rb_backends rb.rb_clients rb.rb_per_client rb.rb_pipeline rb.rb_total_requests
            (Sclient.hit_rate rb.rb_warm)
            (match !service_v2_bench_result with
            | Some e14 when e14.s2_warm.Sclient.rps > 0. ->
              Printf.sprintf "%.2f" (rb.rb_warm.Sclient.rps /. e14.s2_warm.Sclient.rps)
            | _ -> "null")
            rb.rb_forwarded rb.rb_retries rb.rb_ejections (pass rb.rb_cold) (pass rb.rb_warm);
        ])
    @
    match !symbolic_bench_result with
    | None -> []
    | Some sy ->
      let module Certify = Dda_symbolic.Certify in
      let regime (name, (fv : Certify.t), times) =
        Printf.sprintf
          "\"%s\": {\"verdict\": \"%s\", \"from_n\": %d, \"checked_to\": %d, \
           \"cutoff\": %s, \"window\": %s, \"configs\": %d, \"seconds_summary\": %s}"
          name
          (json_escape (Format.asprintf "%a" Decide.pp_verdict fv.Certify.verdict))
          fv.Certify.from_n fv.Certify.checked_to
          (match fv.Certify.certificate with
          | Certify.Cutoff k -> string_of_int k
          | Certify.Window _ -> "null")
          (match fv.Certify.certificate with
          | Certify.Window w -> string_of_int w
          | Certify.Cutoff _ -> "null")
          fv.Certify.configs
          (Dda_analysis.Stats.summary_json (Dda_analysis.Stats.summarise times))
      in
      let explicit (n, configs, seconds) =
        Printf.sprintf "{\"n\": %d, \"configs\": %d, \"seconds\": %.4f}" n configs seconds
      in
      [
        Printf.sprintf
          "\"symbolic\": {\"family\": \"%s\", \"protocol\": \"%s\", %s, %s, \
           \"explicit_instances\": [%s], \"family_hit_n\": %d, \"family_hit_seconds\": %.6f}"
          (json_escape sy.sy_family) (json_escape sy.sy_protocol)
          (regime (List.nth sy.sy_regimes 0))
          (regime (List.nth sy.sy_regimes 1))
          (String.concat ", " (List.map explicit sy.sy_explicit))
          sy.sy_hit_n sy.sy_hit_seconds;
      ]
  in
  (match sections with
  | [] -> Format.fprintf out "  ]@.}@."
  | secs ->
    Format.fprintf out "  ],@.";
    List.iteri
      (fun i s ->
        Format.fprintf out "  %s%s@." s (if i = List.length secs - 1 then "" else ","))
      secs;
    Format.fprintf out "}@.");
  close_out oc;
  Format.printf "wrote BENCH_verify.json (%d rows)@." (List.length !rows)

(* ------------------------------------------------------------------ *)
(* Bechamel timing of the core kernels                                    *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  section "Timings (bechamel, monotonic clock)";
  let open Bechamel in
  let open Toolkit in
  let g21 = G.cycle (List.init 21 (fun i -> if i mod 3 = 0 then "a" else "b")) in
  let hom = H.weak_majority ~degree_bound:2 in
  let exists_m = Dda_protocols.Cutoff_one.exists_label ~alphabet:[ "a"; "b" ] "a" in
  let g9 = G.cycle (List.init 9 (fun i -> if i mod 3 = 0 then "a" else "b")) in
  let pop = Dda_protocols.Pop_examples.majority_4state in
  let pop_g = G.cycle (List.init 15 (fun i -> if i mod 3 = 0 then 'a' else 'b')) in
  let tests =
    [
      Test.make ~name:"s6.1 step, n=21 ring"
        (Staged.stage (fun () ->
             let c = Config.initial hom g21 in
             ignore (Config.step hom g21 c [ 0; 5; 10 ])));
      Test.make ~name:"explicit space exists-a, n=9 ring"
        (Staged.stage (fun () -> ignore (Space.explore ~max_configs:100_000 exists_m g9)));
      Test.make ~name:"counted clique space exists-a, n=40"
        (Staged.stage (fun () ->
             ignore
               (Dda_symbolic.Counted.clique ~max_configs:100_000 exists_m
                  (M.of_counts [ ("a", 10); ("b", 30) ]))));
      Test.make ~name:"pre-star climber"
        (Staged.stage (fun () ->
             let states = [ 0; 1; 2 ] in
             ignore (Cov.pre_star ~states climber (Cov.non_rejecting_targets ~states climber))));
      Test.make ~name:"population majority run, n=15 ring"
        (Staged.stage (fun () -> ignore (Pop.simulate_random ~seed:1 ~max_steps:50_000 pop pop_g)));
      Test.make ~name:"s6.1 run 10k steps, n=21 ring"
        (Staged.stage (fun () ->
             ignore
               (Run.simulate ~max_steps:10_000 hom g21 (Scheduler.random_exclusive ~n:21 ~seed:1))));
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second (if quick then 0.25 else 1.0)) () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"dda" ~fmt:"%s %s" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name result acc -> (name, result) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "%-50s %12.0f ns/run@." name est
      | _ -> Format.printf "%-50s %12s@." name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Telemetry overhead microbench                                          *)
(* ------------------------------------------------------------------ *)

(* A/B on the s6.1 explore instance: disabled (the state every other
   experiment above ran in) vs enabled with trace+journal sinks.  Runs
   last because Telemetry.enable is write-once per process. *)
let telemetry_overhead_bench () =
  section "Telemetry overhead (s6.1 explore, disabled vs trace+journal)";
  let module T = Dda_telemetry.Telemetry in
  let hom = H.weak_majority ~degree_bound:2 in
  let word = if smoke then "abab" else "abbab" in
  let g = G.line (List.init (String.length word) (fun i -> String.make 1 word.[i])) in
  let reps = if smoke then 1 else 5 in
  let time_explore () =
    let t0 = mono () in
    ignore (Space.explore ~max_configs:6_000_000 hom g);
    mono () -. t0
  in
  let med l = List.nth (List.sort compare l) (List.length l / 2) in
  ignore (time_explore ()) (* warm-up *);
  let disabled = med (List.init reps (fun _ -> time_explore ())) in
  let trace = Filename.temp_file "dda_bench_trace" ".json" in
  let journal = Filename.temp_file "dda_bench_journal" ".jsonl" in
  T.enable ~trace ~journal ();
  ignore (time_explore ());
  let enabled = med (List.init reps (fun _ -> time_explore ())) in
  T.shutdown ();
  Sys.remove trace;
  Sys.remove journal;
  Format.printf "instance: s6.1 line %s   reps: %d (median)@." word reps;
  Format.printf "disabled: %.4fs   enabled(trace+journal): %.4fs   overhead: %+.1f%%@." disabled
    enabled
    (100. *. ((enabled -. disabled) /. disabled))

let () =
  Format.printf "Decision Power of Weak Asynchronous Models — experiment harness%s@."
    (if quick then " (quick mode)" else "");
  (* E18 and the forked E11 rows first: a forked child's RSS baseline is
     the parent's footprint, and OCaml 5 cannot fork at all once the
     domain-spawning experiments below have run *)
  experiment_spill ();
  experiment_verify_bench ();
  experiment_figure1 ();
  experiment_broadcast_overhead ();
  experiment_chain ();
  experiment_indistinguishability ();
  experiment_cutoff_bounds ();
  experiment_population_overhead ();
  experiment_convergence ();
  experiment_primality ();
  experiment_exact_adversarial ();
  experiment_cache ();
  experiment_service ();
  experiment_service_v2 ();
  experiment_observability ();
  experiment_router ();
  experiment_symbolic ();
  write_bench_json ();
  bechamel_suite ();
  telemetry_overhead_bench ();
  Format.printf "@.done.@."

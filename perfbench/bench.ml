(* The repository benchmark: four seeded workloads (explore, spill, batch,
   serve) driven through the libraries' public entry points and the dda
   executable, with a verdict gate, exact counts and an optional traced
   run that times every call the benchmark makes into each layer.

   Usage (normally through run.py, which builds this program first):
     bench.exe --workload W --seed N --seconds S --trace 0|1 --dda PATH --tmp DIR
   The last line of standard output is the JSON result; the lines before
   it carry the environment stamp, the metrics by name and unit, the exact
   counts and the workload-specific detail metrics.  See README.md. *)

module T = Dda_telemetry.Telemetry
module Json = Dda_telemetry.Json
module Spec = Dda_batch.Spec
module Batch = Dda_batch.Batch
module Store = Dda_batch.Store
module Fingerprint = Dda_batch.Fingerprint
module Space = Dda_verify.Space
module Engine = Dda_verify.Engine
module Decide = Dda_verify.Decide
module Symmetry = Dda_verify.Symmetry
module Graph = Dda_graph.Graph
module Protocol = Dda_service.Protocol
module Client = Dda_service.Client

let now = T.monotonic

(* ------------------------------------------------------------------ *)
(* Statistics and the steadiness rules                                 *)
(* ------------------------------------------------------------------ *)

let sorted_array a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let sorted xs = sorted_array (Array.of_list xs)

(* Linear interpolation between order statistics; [a] sorted, non-empty. *)
let quantile a q =
  let n = Array.length a in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile (sorted xs) 0.5

(* Rule 1: a percentile is reported only with at least ten samples beyond
   it; the caller prints the sample count beside it. *)
let min_tail = 10

(* [a] sorted *)
let tail_quantile a q =
  let n = Array.length a in
  let beyond = n - int_of_float (ceil (q *. float_of_int n)) in
  if n = 0 || beyond < min_tail then None else Some (quantile a q)

(* Rule 4: a gated timing must be far above timer jitter.  Every gated
   time is a median of units that each last at least this long. *)
let min_timed_unit_s = 0.02

(* Light set-ups are repeated to blocks of this length. *)
let setup_block_s = 0.05

(* ------------------------------------------------------------------ *)
(* Tracing: spans around the benchmark's own calls into the layers      *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type span = {
    idx : int;
    name : string;
    id : int;  (** job or request id, -1 when none *)
    parent : int;
    t0 : float;
    mutable t1 : float;
    mutable child : float;  (** time covered by direct children *)
  }

  let on = ref false
  let count = ref 0
  let spans : span list ref = ref []
  let stack : span list ref = ref []

  let span ?(id = -1) name f =
    if not !on then f ()
    else begin
      let parent = match !stack with s :: _ -> s.idx | [] -> -1 in
      let s = { idx = !count; name; id; parent; t0 = now (); t1 = 0.; child = 0. } in
      incr count;
      spans := s :: !spans;
      stack := s :: !stack;
      let finish () =
        s.t1 <- now ();
        stack := List.tl !stack;
        match !stack with p :: _ -> p.child <- p.child +. (s.t1 -. s.t0) | [] -> ()
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  (* (calls, total self seconds) per span name *)
  let self_times () =
    let h = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let self = s.t1 -. s.t0 -. s.child in
        let c, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt h s.name) in
        Hashtbl.replace h s.name (c + 1, t +. self))
      !spans;
    h

  (* Chrome trace-event JSON, written once at the end of the run. *)
  let write path =
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[\n";
    List.iteri
      (fun i s ->
        if i > 0 then output_string oc ",\n";
        Printf.fprintf oc
          "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d,\"id\":%d}}"
          s.name (s.t0 *. 1e6) ((s.t1 -. s.t0) *. 1e6) s.idx s.parent s.id)
      (List.rev !spans);
    output_string oc "\n]}\n";
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Results, counts and the verdict gate                                *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

let fail_op msg =
  incr failed;
  if List.length !failures < 20 then failures := msg :: !failures

let check_op ~what ~expect ~got =
  incr attempted;
  if expect <> got then
    fail_op (Printf.sprintf "%s: expected %s, got %s" what expect got)

(* Exact counts: every pass must reproduce the first pass's counts. *)
let counts : (string * int) list ref = ref []
let count_mismatch = ref false

let record_counts pass cs =
  if pass = 0 then counts := cs
  else if cs <> !counts then begin
    count_mismatch := true;
    fail_op
      (Printf.sprintf "pass %d counts differ: %s" pass
         (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs)))
  end

let verdict_name = function
  | Decide.Accepts -> "accepts"
  | Decide.Rejects -> "rejects"
  | Decide.Inconsistent _ -> "inconsistent"

let result_name = function
  | Batch.Verdict v -> verdict_name v
  | Batch.Bounded n -> Printf.sprintf "bounded(%d)" n

let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* ------------------------------------------------------------------ *)
(* Instance classes and their seeded presentations                     *)
(* ------------------------------------------------------------------ *)

type topo = Line | Cycle | Grid of int * int | Star | Clique

let spec_of topo word =
  match topo with
  | Line -> "line:" ^ word
  | Cycle -> "cycle:" ^ word
  | Grid (w, h) -> Printf.sprintf "grid:%dx%d:%s" w h word
  | Star -> "star:" ^ word
  | Clique -> "clique:" ^ word

let rev s = String.init (String.length s) (fun i -> s.[String.length s - 1 - i])

(* Label words of graphs isomorphic to the canonical one: the seed picks
   among them, so the library sees different specs with identical work. *)
let presentations topo w =
  let n = String.length w in
  let ps =
    match topo with
    | Line -> [ w; rev w ]
    | Cycle ->
      List.concat_map
        (fun k ->
          let r = String.init n (fun i -> w.[(i + k) mod n]) in
          [ r; rev r ])
        (List.init n Fun.id)
    | Grid (gw, gh) ->
      let at f = String.init n (fun i -> let x, y = f (i mod gw) (i / gw) in w.[(y * gw) + x]) in
      [
        w;
        at (fun x y -> (gw - 1 - x, y));
        at (fun x y -> (x, gh - 1 - y));
        at (fun x y -> (gw - 1 - x, gh - 1 - y));
      ]
    | Star | Clique -> [ w ]
  in
  List.sort_uniq compare ps

let present rng topo w =
  let ps = presentations topo w in
  spec_of topo (List.nth ps (Random.State.int rng (List.length ps)))

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let regimes = [ Spec.Adversarial; Spec.Pseudo_stochastic ]

(* A decision job: protocol, the class's canonical spec (the golden key),
   the presented spec, regime, symmetry reduction and memory budget. *)
type job = {
  proto : string;
  canon : string;
  spec : string;
  regime : Spec.regime;
  reduce : bool;
  budget : int option;
}

let golden_key ~proto ~canon ~regime ~reduce =
  Printf.sprintf "%s|%s|%s%s" proto canon (Spec.regime_name regime)
    (if reduce then "|reduce" else "")

let golden_tbl = lazy (
  let h = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) Golden.table;
  h)

let expected ~proto ~canon ~regime ~reduce =
  let k = golden_key ~proto ~canon ~regime ~reduce in
  match Hashtbl.find_opt (Lazy.force golden_tbl) k with
  | Some v -> v
  | None -> failwith ("no golden entry for " ^ k)

let job_expected j = expected ~proto:j.proto ~canon:j.canon ~regime:j.regime ~reduce:j.reduce

let describe j =
  Printf.sprintf "%s %s %s%s%s" j.proto j.spec (Spec.regime_name j.regime)
    (if j.reduce then " reduced" else "")
    (match j.budget with Some b -> Printf.sprintf " budget=%d" b | None -> "")

(* ------------------------------------------------------------------ *)
(* Workload definitions                                                 *)
(* ------------------------------------------------------------------ *)

let smoke = ref false

(* (protocol, topology, canonical word, symmetry-reduced) *)
let explore_classes () =
  if !smoke then [ ("weak-majority-bounded:2", Line, "abab", false); ("exists:a", Cycle, "abb", true) ]
  else
    [
      ("majority-bounded:2", Line, "abbab", false);
      ("weak-majority-bounded:2", Cycle, "aabbb", true);
      ("majority-bounded:2", Line, "ababa", true);
    ]

(* (protocol, topology, canonical word, memory budget in bytes, regimes) *)
let spill_classes () =
  if !smoke then [ ("weak-majority-bounded:2", Line, "abab", 262_144, regimes) ]
  else
    [
      ("majority-bounded:2", Line, "abbab", 1_000_000, regimes);
      ("weak-majority-bounded:2", Cycle, "aabb", 65_536, regimes);
    ]

(* Small concrete instances shared by the batch manifest and the serve mix:
   (protocol, graphs) pairs, each decision a few milliseconds at most. *)
let small_classes () =
  if !smoke then [ ("exists:a", [ (Line, "aab"); (Cycle, "abb") ]); ("threshold:a,2", [ (Cycle, "abb") ]) ]
  else
    (* pairwise non-isomorphic, so every class has its own cache key *)
    let wide = [ (Line, "aabb"); (Line, "abab"); (Cycle, "aabb"); (Cycle, "aabab"); (Grid (2, 2), "aaab"); (Grid (3, 2), "aabbab") ] in
    let narrow = [ (Line, "aab"); (Line, "abb"); (Cycle, "abb") ] in
    [
      ("exists:a", wide);
      ("cutoff1:a", [ (Line, "aabb"); (Cycle, "aabab"); (Grid (2, 2), "aaab") ]);
      ("threshold:a,2", narrow);
      ("weak-majority-bounded:2", narrow);
      ("majority-bounded:2", narrow);
    ]

(* The serve mix: the six F-regime decisions of bench E13/E14
   (EXPERIMENTS.md), sent under the default budget as E14 sends them. *)
let serve_classes () =
  let e14 =
    [
      ("exists:a", Cycle, "abb");
      ("exists:a", Cycle, "aabb");
      ("exists:a", Line, "abab");
      ("threshold:a,2", Cycle, "aab");
      ("threshold:a,2", Line, "aabb");
      ("exists:a", Cycle, "abab");
    ]
  in
  if !smoke then List.filteri (fun i _ -> i < 2) e14 else e14

let family_protocols () = if !smoke then [ "exists:a" ] else [ "exists:a"; "threshold:a,2"; "cutoff1:a" ]
let families () = if !smoke then [ (Star, "ba") ] else [ (Star, "ba"); (Clique, "ab") ]
let instance_sizes () = [ 5 ]

(* The label word of instance [n] of a family word: pump the last label. *)
let instance_word word n =
  word ^ String.make (n - String.length word) word.[String.length word - 1]

let concrete_jobs rng =
  List.concat_map
    (fun (proto, graphs) ->
      List.concat_map
        (fun (topo, w) ->
          List.map
            (fun regime ->
              { proto; canon = spec_of topo w; spec = present rng topo w; regime; reduce = false; budget = None })
            regimes)
        graphs)
    (small_classes ())

let serve_jobs rng =
  List.map
    (fun (proto, topo, w) ->
      { proto; canon = spec_of topo w; spec = present rng topo w; regime = Spec.Pseudo_stochastic; reduce = false; budget = None })
    (serve_classes ())

(* ------------------------------------------------------------------ *)
(* Environment                                                          *)
(* ------------------------------------------------------------------ *)

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  let ic = open_in_bin path in
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let n = input ic chunk 0 4096 in
    if n > 0 then begin
      Buffer.add_subbytes b chunk 0 n;
      go ()
    end
  in
  go ();
  close_in ic;
  Buffer.contents b

let status_kb pid field =
  try
    let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%s/status" pid)) in
    List.find_map
      (fun l ->
        match String.index_opt l ':' with
        | Some i when String.sub l 0 i = field ->
          let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
          int_of_string_opt (List.hd (String.split_on_char ' ' v))
        | _ -> None)
      lines
  with _ -> None

let peak_rss_mb pid =
  match status_kb pid "VmHWM" with Some kb -> float_of_int kb /. 1024. | None -> nan

(* Filesystem type of the mount holding [dir] (longest mount-point prefix). *)
let fs_type dir =
  try
    let real = Unix.realpath dir in
    let best = ref ("", "unknown") in
    List.iter
      (fun l ->
        match String.split_on_char ' ' l with
        | _ :: mp :: ty :: _ ->
          let pre = if mp = "/" then "/" else mp ^ "/" in
          let inside = real = mp || (String.length real >= String.length pre && String.sub real 0 (String.length pre) = pre) in
          if inside && String.length mp >= String.length (fst !best) then best := (mp, ty)
        | _ -> ())
      (String.split_on_char '\n' (read_file "/proc/self/mounts"));
    snd !best
  with _ -> "unknown"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let tmp_root = ref ".perfbench"
let fresh_counter = ref 0

let fresh_dir tag =
  incr fresh_counter;
  let d = Filename.concat !tmp_root (Printf.sprintf "%s-%d" tag !fresh_counter) in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* Children: every process the benchmark starts is stopped and reaped   *)
(* ------------------------------------------------------------------ *)

let children : int list ref = ref []

let stop_child pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  children := List.filter (( <> ) pid) !children

let () = at_exit (fun () -> List.iter stop_child !children)

(* ------------------------------------------------------------------ *)
(* Machine-speed calibration                                            *)
(* ------------------------------------------------------------------ *)

(* The host's speed drifts (neighbours contend for memory bandwidth and
   cache), so every gated time is reported in reference seconds: the raw
   time scaled by [nominal / c], where [c] is the mean time of a fixed
   kernel run between measured units (see [scale]).
   The kernel is the benchmark's own code and runs in a forked helper
   process, so it never touches the library or the measured process's
   RSS.  Raw times are printed beside the gated ones. *)
module Calib = struct
  let nominal = 0.03
  let iterations = 2_000_000

  (* Random read-modify-write over 32 MiB: memory-latency bound. *)
  let kernel buf =
    let mask = Array.length buf - 1 in
    let t0 = now () in
    let h = ref 0x811c9dc5 in
    for i = 0 to iterations do
      h := (!h lxor i) * 0x01000193 land 0x3fffffff;
      let j = !h land mask in
      buf.(j) <- buf.(j) + 1
    done;
    now () -. t0

  (* Cache-resident and allocation-heavy: a canonical-form search over the
     permutations of a short word, the shape of a graph fingerprint. *)
  let cpu_kernel () =
    let t0 = now () in
    let best = ref "~" in
    for k = 0 to 60_000 do
      let pool = Array.init 7 Fun.id and perm = Array.make 7 0 and r = ref (k mod 5040) in
      let left = ref 7 in
      for i = 0 to 6 do
        let f = ref 1 in
        for j = 2 to !left - 1 do f := !f * j done;
        let q = !r / !f in
        r := !r mod !f;
        perm.(i) <- pool.(q);
        Array.blit pool (q + 1) pool q (!left - q - 1);
        decr left
      done;
      let s = String.init 7 (fun i -> Char.chr (97 + ((perm.(i) * 7 + k) mod 26))) in
      if s < !best then best := s
    done;
    ignore (Sys.opaque_identity !best);
    now () -. t0

  (* The kernel that shares the workload's dominant resource: [`Cpu] for
     cache-resident work (fingerprints, the server loop, streaming sweeps),
     [`Both] for the explicit engine, which mixes it with memory-latency
     bound probes of its large interning tables.  Each kernel alone missed
     some of the host's slow spells there; [`Both] takes the geometric
     mean of the two. *)
  let kind = ref `Cpu

  let chan = ref None

  (* Fork the helper before any domain or thread exists. *)
  let start () =
    let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      Unix.close req_w;
      Unix.close resp_r;
      let buf = Array.make (1 lsl 22) 0 in
      let b = Bytes.create 1 in
      (try
         while Unix.read req_r b 0 1 = 1 do
           let t = if Bytes.get b 0 = 'c' then cpu_kernel () else kernel buf in
           let line = Printf.sprintf "%.9f\n" t in
           ignore (Unix.write_substring resp_w line 0 (String.length line))
         done
       with _ -> ());
      Unix._exit 0
    | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      children := pid :: !children;
      chan := Some (req_w, Unix.in_channel_of_descr resp_r)

  (* Child processes under measurement (the dda server), stopped while the
     kernel runs: a program that uses CPU while idle would otherwise slow
     the kernel and read as a speed-up. *)
  let paused : int list ref = ref []

  let measure () =
    match !chan with
    | None -> nominal
    | Some (w, ic) ->
      let stopped =
        List.filter
          (fun pid ->
            match Unix.kill pid Sys.sigstop with
            | () ->
              let rec wait () =
                try ignore (Unix.waitpid [ Unix.WUNTRACED ] pid)
                with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
              in
              (try wait () with Unix.Unix_error _ -> ());
              true
            | exception Unix.Unix_error _ -> false)
          !paused
      in
      let run k =
        ignore (Unix.write_substring w k 0 1);
        float_of_string (input_line ic)
      in
      let c = match !kind with `Cpu -> run "c" | `Both -> sqrt (run "c" *. run "m") in
      List.iter (fun pid -> try Unix.kill pid Sys.sigcont with Unix.Unix_error _ -> ()) stopped;
      c

  (* [f] times its own unit; returns the raw time and the calibration
     taken right after it. *)
  let after f =
    let raw = f () in
    (raw, measure ())

  (* Each unit's raw time scaled by [nominal] over the mean calibration
     taken after the units within two places of it: the host's speed
     flips between states every few seconds, and a five-point window
     follows the flips without inheriting one calibration's own noise. *)
  let scale units =
    let c = Array.of_list (List.map snd units) in
    let n = Array.length c in
    List.mapi
      (fun i (raw, _) ->
        let lo = max 0 (i - 2) and hi = min (n - 1) (i + 2) in
        let sum = ref 0. in
        for k = lo to hi do
          sum := !sum +. c.(k)
        done;
        raw *. nominal /. (!sum /. float_of_int (hi - lo + 1)))
      units
end

(* ------------------------------------------------------------------ *)
(* Exact decisions through Space / Decide (explore, spill, probes)      *)
(* ------------------------------------------------------------------ *)

type prepared =
  | P : {
      job : job;
      m : (string, 's) Dda_machine.Machine.t;
      g : string Graph.t;
      sym : Symmetry.t option;
    }
      -> prepared

let prepare j =
  let g = Trace.span "spec.parse" (fun () -> ok_exn j.spec (Spec.parse_graph j.spec)) in
  let (Spec.Packed m) = Trace.span "spec.parse" (fun () -> ok_exn j.proto (Spec.parse_protocol j.proto g)) in
  let sym =
    if not j.reduce then None
    else
      let n = Graph.nodes g in
      Some (if String.sub j.spec 0 5 = "cycle" then Symmetry.cycle n else Symmetry.line n)
  in
  P { job = j; m; g; sym }

(* Engine and arena statistics of every traced exploration, for the
   per-layer metrics: (configurations, engine stats). *)
let engine_samples : (int * Engine.stats) list ref = ref []
let spill_samples : Dda_verify.Arena.spill_stats list ref = ref []

type exact = {
  verdict : string;
  configs : int;
  ecounts : (string * int) list;  (** engine and arena counters *)
  stats : Engine.stats option;
}

let decide_exact ?(id = -1) (P p) =
  let spilled = p.job.budget <> None in
  let layer = if spilled then "spill" else "engine" in
  let sp =
    Trace.span ~id (layer ^ ".explore") (fun () ->
        Space.explore ~jobs:1 ?symmetry:p.sym ?mem_budget:p.job.budget ~max_configs:2_000_000 p.m p.g)
  in
  let rname = Spec.regime_name p.job.regime in
  let name = if spilled then "spill.analysis_" ^ rname else "decide." ^ rname in
  let v =
    Trace.span ~id name (fun () ->
        match p.job.regime with
        | Spec.Adversarial -> Decide.adversarial sp
        | Spec.Pseudo_stochastic -> Decide.pseudo_stochastic sp)
  in
  let e = Space.engine sp in
  let ecounts, stats =
    match e with
    | None -> ([], None)
    | Some e ->
      let st = e.Engine.stats in
      if !Trace.on && not spilled then engine_samples := (sp.Space.size, st) :: !engine_samples;
      (* A budgeted job must really spill, or it measured resident work.
         The snapshot is taken at the end of exploration, before the
         analyses fault segments back in, so only evictions are required. *)
      if spilled then begin
        incr attempted;
        match Engine.spill_stats e with
        | Some s when s.Dda_verify.Arena.segments_out > 0 -> ()
        | _ -> fail_op (describe p.job ^ ": the budget caused no spill")
      end;
      let spill =
        match Engine.spill_stats e with
        | Some s ->
          if !Trace.on then spill_samples := s :: !spill_samples;
          [ ("arena.bytes_out", s.Dda_verify.Arena.bytes_out); ("arena.bytes_in", s.Dda_verify.Arena.bytes_in) ]
        | None -> []
      in
      Engine.release e;
      ( [
          ("delta_evals", st.Engine.delta_evals);
          ("table_probes", st.Engine.table_probes);
          ("dedup_hits", st.Engine.dedup_hits);
        ]
        @ spill,
        Some st )
  in
  { verdict = verdict_name v; configs = sp.Space.size; ecounts; stats }

let sum_counts lists =
  let h = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (List.iter (fun (k, v) ->
         if not (Hashtbl.mem h k) then order := k :: !order;
         Hashtbl.replace h k (v + Option.value ~default:0 (Hashtbl.find_opt h k))))
    lists;
  List.rev_map (fun k -> (k, Hashtbl.find h k)) !order

let gate_exact j (r : exact) =
  let ev, ec = job_expected j in
  check_op ~what:(describe j)
    ~expect:(Printf.sprintf "%s/%d" ev ec)
    ~got:(Printf.sprintf "%s/%d" r.verdict r.configs)

(* One pass over a fixed list of prepared decisions: first job start to
   last verdict.  Returns the wall time and the pass's exact counts. *)
let decision_pass prepared =
  let results = ref [] in
  let units =
    List.mapi
      (fun i p ->
        Calib.after (fun () ->
            let t0 = now () in
            let r = decide_exact ~id:i p in
            results := (p, r) :: !results;
            now () -. t0))
      prepared
  in
  let results = List.rev !results in
  List.iter (fun (P p, r) -> gate_exact p.job r) results;
  let configs = List.fold_left (fun a (_, r) -> a + r.configs) 0 results in
  (units, ("configs", configs) :: sum_counts (List.map (fun (_, r) -> r.ecounts) results))

(* ------------------------------------------------------------------ *)
(* Golden table generation (resident explicit engine)                   *)
(* ------------------------------------------------------------------ *)

let all_golden_jobs () =
  let mk proto canon reduce =
    List.map (fun regime -> { proto; canon; spec = canon; regime; reduce; budget = None }) regimes
  in
  let both f = smoke := false; let a = f () in smoke := true; let b = f () in smoke := false; a @ b in
  let explore = both (fun () -> List.concat_map (fun (p, t, w, r) -> mk p (spec_of t w) r) (explore_classes ())) in
  let spill = both (fun () -> List.concat_map (fun (p, t, w, _, _) -> mk p (spec_of t w) false) (spill_classes ())) in
  let small =
    both (fun () ->
        List.concat_map (fun (p, gs) -> List.concat_map (fun (t, w) -> mk p (spec_of t w) false) gs) (small_classes ()))
  in
  let serve = both (fun () -> List.concat_map (fun (p, t, w) -> mk p (spec_of t w) false) (serve_classes ())) in
  let inst =
    both (fun () ->
        List.concat_map
          (fun p ->
            List.concat_map
              (fun (t, w) -> List.concat_map (fun n -> mk p (spec_of t (instance_word w n)) false) (instance_sizes ()))
              (families ()))
          (family_protocols ()))
  in
  List.sort_uniq compare (explore @ spill @ small @ serve @ inst)

let golden_mode check =
  let bad = ref 0 in
  if not check then print_string "(* Generated by [bench.exe --golden]: expected verdict and configuration\n   count of every benchmark class, from the resident explicit engine. *)\n\nlet table =\n  [\n";
  List.iter
    (fun j ->
      let t0 = now () in
      let r = decide_exact (prepare j) in
      let k = golden_key ~proto:j.proto ~canon:j.canon ~regime:j.regime ~reduce:j.reduce in
      if check then begin
        let ev, ec = job_expected j in
        if (ev, ec) <> (r.verdict, r.configs) then begin
          incr bad;
          Printf.printf "golden mismatch %s: table %s/%d, engine %s/%d\n" k ev ec r.verdict r.configs
        end
      end
      else Printf.printf "    (%S, (%S, %d)); (* %.3f s *)\n" k r.verdict r.configs (now () -. t0))
    (all_golden_jobs ());
  if check then begin
    Printf.printf "golden table: %d entries checked, %d mismatches\n" (List.length (all_golden_jobs ())) !bad;
    exit (if !bad = 0 then 0 else 1)
  end
  else print_string "  ]\n"

(* ------------------------------------------------------------------ *)
(* Measurement scaffolding                                              *)
(* ------------------------------------------------------------------ *)

(* setup_s: the set-up is repeated until a block lasts at least
   [min_timed_unit_s]; the metric is the median over blocks of the time per
   set-up (rule 4), in reference seconds, with the raw median beside it.
   [heavy] set-ups (seconds) run once per block.  Set-ups are not traced.
   In explore, spill and batch this runs after the passes: the number of
   repetitions depends on timing, and the garbage they leave would shift
   the GC's phase in the pass that sets peak_rss_mb. *)
let time_setup ?(blocks = 11) ?(heavy = false) f =
  let traced = !Trace.on in
  Trace.on := false;
  (* the garbage of the passes before it is not collected inside a block *)
  Gc.full_major ();
  Fun.protect ~finally:(fun () -> Trace.on := traced) @@ fun () ->
  let reps =
    if heavy then 1
    else begin
      let t0 = now () in
      f ();
      let one = now () -. t0 in
      max 1 (int_of_float (ceil (setup_block_s /. Float.max one 1e-7)))
    end
  in
  let units =
    List.init blocks (fun _ ->
        Calib.after (fun () ->
            let t0 = now () in
            for _ = 1 to reps do
              f ()
            done;
            (now () -. t0) /. float_of_int reps))
  in
  (median (Calib.scale units), median (List.map fst units))

let min_passes () = if !smoke then 2 else 3

(* Run passes until [seconds] have elapsed (at least [min_passes]).  A
   pass returns its timed units, each with the calibration taken after it
   (one unit per decision for explore and spill, the cold and the warm
   half for batch, the whole pass for serve); the result holds every
   pass's units, calibrated and raw.  [pass] receives the global pass
   index. *)
let passes_done = ref 0

(* peak_rss_mb is the VmHWM of the working process right after the first
   pass: set-up plus one full pass, a fixed amount of work, so the figure
   does not depend on how many passes fit in the run. *)
let rss_pid = ref "self"
let first_pass_rss = ref nan

let run_passes ~seconds pass =
  let t_end = now () +. seconds in
  let passes = ref [] in
  let k = ref 0 in
  while !k < min_passes () || now () < t_end do
    let units = pass !passes_done in
    if !passes_done = 0 then first_pass_rss := peak_rss_mb !rss_pid;
    incr passes_done;
    incr k;
    passes := units :: !passes
  done;
  let passes = List.rev !passes in
  let scaled = ref (Calib.scale (List.concat passes)) in
  List.map
    (List.map (fun (raw, _) ->
         let cal = List.hd !scaled in
         scaled := List.tl !scaled;
         (cal, raw)))
    passes

(* A pass's time, calibrated and raw: the sum of its units. *)
let pass_time units = List.fold_left (fun (c, r) (c', r') -> (c +. c', r +. r')) (0., 0.) units

let overhead_share ~traced ~plain =
  let med ps = median (List.map (fun p -> fst (pass_time p)) ps) in
  (med traced /. med plain) -. 1.

(* A pass timed as one unit, calibrated after it. *)
let whole f i = [ Calib.after (fun () -> f i) ]

(* End-to-end metrics ([value], [unit]) and detail lines of one run. *)
let e2e : (string * float * string) list ref = ref []
let layer : (string * float * string) list ref = ref []
let detail : (string * float * string) list ref = ref []
let add r name v u = r := !r @ [ (name, v, u) ]

(* A timing reported beside its sample count; percentiles obey rule 1. *)
let add_latency_detail name samples =
  let a = sorted_array samples in
  let n = Array.length a in
  if n > 0 then begin
    add detail (name ^ "_p50_ms") (quantile a 0.5) "ms";
    add detail (name ^ "_samples") (float_of_int n) "count";
    match tail_quantile a 0.99 with
    | Some v -> add detail (name ^ "_p99_ms") v "ms"
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Per-layer probes: the workload's own inputs through each layer       *)
(* ------------------------------------------------------------------ *)

(* Repeat [f] over [items] until [budget_s] has elapsed (at least once). *)
let loop_items ?(budget_s = 0.02) items f =
  if items <> [] then begin
    let t_end = now () +. budget_s in
    let rec go () =
      List.iteri f items;
      if now () < t_end then go ()
    in
    go ()
  end

let decide_of_name = function
  | "accepts" -> Decide.Accepts
  | "rejects" -> Decide.Rejects
  | _ -> Decide.Inconsistent "benchmark"

let request_line ~id ~max_configs j =
  Printf.sprintf
    "{\"schema\":\"dda.service/1\",\"id\":\"%d\",\"op\":\"decide\",\"protocol\":%s,\"graph\":%s,\"regime\":\"%s\",\"max_configs\":%d}"
    id (Json.to_string (Json.Str j.proto)) (Json.to_string (Json.Str j.spec)) (Spec.regime_name j.regime) max_configs

let parse_request_exn line =
  match Protocol.parse_request line with
  | Ok r -> r
  | Error e -> failwith ("request: " ^ e.Protocol.err_reason)

let probe_spec_fingerprint_protocol jobs =
  loop_items jobs (fun _ j -> ignore (prepare { j with reduce = false }));
  let prepared = List.map (fun j -> prepare { j with reduce = false }) jobs in
  loop_items prepared (fun i (P p) ->
      let labels = Spec.alphabet_of p.g in
      let mk = Trace.span ~id:i "fingerprint.machine" (fun () -> Fingerprint.machine ~labels p.m) in
      let gk = Trace.span ~id:i "fingerprint.graph" (fun () -> Fingerprint.graph p.g) in
      ignore
        (Trace.span ~id:i "fingerprint.key" (fun () ->
             Fingerprint.key ~machine:mk ~graph:gk ~regime:(Spec.regime_name p.job.regime) ~max_configs:200_000 ())));
  let lines = List.mapi (fun i j -> request_line ~id:i ~max_configs:200_000 j) jobs in
  loop_items lines (fun i line ->
      let req = Trace.span ~id:i "protocol.v1_parse" (fun () -> parse_request_exn line) in
      let frame = Trace.span ~id:i "protocol.v2_encode" (fun () -> Protocol.encode_request_frame req) in
      let payload = String.sub frame 4 (String.length frame - 4) in
      match Trace.span ~id:i "protocol.v2_decode" (fun () -> Protocol.decode_request_payload payload) with
      | Ok _ -> ()
      | Error e -> failwith ("decode: " ^ e.Protocol.err_reason))

(* Store tiers over the workload's verdicts: put into a fresh store, then
   find through a disk-only handle and through a memo handle. *)
let probe_store jobs =
  let src = Store.open_ ~root:(fresh_dir "probe-src") () in
  let entries =
    List.map
      (fun j ->
        let (P p) = prepare { j with reduce = false } in
        let v, c = job_expected j in
        let machine_key = Fingerprint.machine ~labels:(Spec.alphabet_of p.g) p.m in
        let graph_key = Fingerprint.graph p.g in
        ignore
          (Batch.cached ~cache:src ~machine_key ~graph_key ~regime:j.regime ~max_configs:200_000 (fun () ->
               (Batch.Verdict (decide_of_name v), c)));
        let key =
          Fingerprint.key ~machine:machine_key ~graph:graph_key ~regime:(Spec.regime_name j.regime)
            ~max_configs:200_000 ()
        in
        match Store.find src key with
        | Some e -> (key, e)
        | None -> failwith "probe: entry not persisted")
      jobs
  in
  let entries = List.sort_uniq (fun (a, _) (b, _) -> compare a b) entries in
  let dst_dir = fresh_dir "probe-dst" in
  let dst = Store.open_ ~root:dst_dir () in
  List.iteri (fun i (_, e) -> Trace.span ~id:i "store.put" (fun () -> Store.put dst e)) entries;
  let disk = Store.open_ ~root:dst_dir () in
  let mem = Store.open_ ~root:dst_dir ~memo:4096 () in
  let expect_tier want (key, _) got =
    match got with
    | Some (_, t) when t = want -> ()
    | _ -> fail_op ("store probe: wrong tier for " ^ key)
  in
  loop_items entries (fun i ((key, _) as ke) ->
      expect_tier `Disk ke (Trace.span ~id:i "store.find_disk" (fun () -> Store.find_tier disk key)));
  List.iter (fun (key, _) -> ignore (Store.find_tier mem key)) entries;
  loop_items entries (fun i ((key, _) as ke) ->
      expect_tier `Mem ke (Trace.span ~id:i "store.find_mem" (fun () -> Store.find_tier mem key)));
  match Store.memo_stats mem with
  | Some st when st.Dda_batch.Lru.hits + st.Dda_batch.Lru.misses > 0 ->
    float_of_int st.Dda_batch.Lru.hits /. float_of_int (st.Dda_batch.Lru.hits + st.Dda_batch.Lru.misses)
  | _ -> 0.

let family_jobs () =
  List.concat_map
    (fun proto ->
      List.concat_map
        (fun (topo, w) -> List.map (fun regime -> (proto, topo, w, regime)) regimes)
        (families ()))
    (family_protocols ())

(* Family verdicts through Batch.decide_family, then every instance size
   answered from the family entry; returns the counted configurations. *)
let probe_symbolic () =
  let store = Store.open_ ~root:(fresh_dir "probe-fam") () in
  List.fold_left
    (fun acc (i, (proto, topo, w, regime)) ->
      let fam = ok_exn "family" (Dda_symbolic.Family.parse (spec_of topo w ^ "*")) in
      let (Spec.Packed m) = ok_exn proto (Spec.parse_protocol proto (Spec.family_representative fam)) in
      let machine_key = Fingerprint.machine ~labels:(Dda_symbolic.Family.alphabet fam) m in
      let d, _ =
        ok_exn "decide_family"
          (Trace.span ~id:i "symbolic.family" (fun () ->
               Batch.decide_family ~cache:store ~machine_key ~regime ~max_configs:200_000 m fam))
      in
      let ev, _ = expected ~proto ~canon:(spec_of topo (instance_word w 5)) ~regime ~reduce:false in
      check_op ~what:("family " ^ proto ^ " " ^ Dda_symbolic.Family.to_string fam) ~expect:ev ~got:(result_name d.Batch.result);
      List.iter
        (fun n ->
          let spec = spec_of topo (instance_word w n) in
          match
            Trace.span ~id:i "symbolic.family_hit" (fun () ->
                Batch.family_hit ~cache:store ~machine_key ~regime ~max_configs:200_000 spec)
          with
          | Some _ -> ()
          | None -> fail_op ("family entry did not answer " ^ spec))
        (instance_sizes ());
      acc + d.Batch.configs)
    0
    (List.mapi (fun i x -> (i, x)) (family_jobs ()))

let spill_probe_jobs () =
  let proto, topo, w, budget, rs = List.hd (spill_classes ()) in
  List.map
    (fun regime -> { proto; canon = spec_of topo w; spec = spec_of topo w; regime; reduce = false; budget = Some budget })
    rs

(* Fill the per-layer table from the spans and samples of the traced part.
   Layers the workload's passes do not reach from the benchmark's side are
   probed here: spec, fingerprint, protocol and store on the workload's own
   jobs ([concrete]), resident and spilled explorations ([resident_probe],
   [spill_probe]), and the family verdicts. *)
let per_layer ~concrete ~resident_probe ~spill_probe ~overhead =
  probe_spec_fingerprint_protocol concrete;
  let mem_share = probe_store concrete in
  List.iter (fun p -> ignore (decide_exact p)) resident_probe;
  List.iter (fun p -> ignore (decide_exact p)) spill_probe;
  let counted = probe_symbolic () in
  let st = Trace.self_times () in
  let mean name = match Hashtbl.find_opt st name with Some (c, t) when c > 0 -> t /. float_of_int c | _ -> 0. in
  let us name = mean name *. 1e6 in
  add layer "trace.overhead_share" overhead "ratio";
  add layer "spec.parse_us" (us "spec.parse") "us";
  add layer "fingerprint.machine_us" (us "fingerprint.machine") "us";
  add layer "fingerprint.graph_us" (us "fingerprint.graph") "us";
  add layer "fingerprint.key_us" (us "fingerprint.key") "us";
  add layer "store.put_us" (us "store.put") "us";
  add layer "store.find_disk_us" (us "store.find_disk") "us";
  add layer "store.find_mem_us" (us "store.find_mem") "us";
  add layer "store.mem_hit_share" mem_share "ratio";
  let es = !engine_samples in
  let sumi f = List.fold_left (fun a x -> a + f x) 0 es in
  let ne = float_of_int (max 1 (List.length es)) in
  let explore_total = match Hashtbl.find_opt st "engine.explore" with Some (_, t) -> t | None -> 0. in
  add layer "engine.explore_s" (mean "engine.explore") "s";
  add layer "engine.configs_per_s" (float_of_int (sumi fst) /. Float.max explore_total 1e-9) "1/s";
  add layer "engine.memo_hit_ratio"
    (1. -. (float_of_int (sumi (fun (_, s) -> s.Engine.delta_evals)) /. float_of_int (max 1 (sumi (fun (_, s) -> s.Engine.delta_lookups)))))
    "ratio";
  add layer "engine.probes_per_intern"
    (float_of_int (sumi (fun (_, s) -> s.Engine.table_probes))
    /. float_of_int (max 1 (sumi (fun (n, s) -> n + s.Engine.dedup_hits))))
    "ratio";
  add layer "engine.table_resizes" (float_of_int (sumi (fun (_, s) -> s.Engine.table_resizes)) /. ne) "count";
  add layer "engine.waves" (float_of_int (sumi (fun (_, s) -> s.Engine.waves)) /. ne) "count";
  add layer "engine.peak_frontier" (float_of_int (List.fold_left (fun a (_, s) -> max a s.Engine.peak_frontier) 0 es)) "count";
  add layer "decide.f_s" (mean "decide.f") "s";
  add layer "decide.F_s" (mean "decide.F") "s";
  add layer "spill.explore_s" (mean "spill.explore") "s";
  add layer "spill.analysis_f_s" (mean "spill.analysis_f") "s";
  add layer "spill.analysis_F_s" (mean "spill.analysis_F") "s";
  let ss = !spill_samples in
  let ns = float_of_int (max 1 (List.length ss)) in
  let sums f = float_of_int (List.fold_left (fun a x -> a + f x) 0 ss) /. ns in
  add layer "arena.bytes_out" (sums (fun s -> s.Dda_verify.Arena.bytes_out)) "B";
  add layer "arena.bytes_in" (sums (fun s -> s.Dda_verify.Arena.bytes_in)) "B";
  add layer "arena.segments_in" (sums (fun s -> s.Dda_verify.Arena.segments_in)) "count";
  add layer "arena.resident_peak"
    (float_of_int (List.fold_left (fun a s -> max a s.Dda_verify.Arena.resident_peak) 0 ss)) "B";
  add layer "symbolic.family_s" (mean "symbolic.family") "s";
  add layer "symbolic.counted_configs" (float_of_int counted) "count";
  add layer "symbolic.family_hit_us" (us "symbolic.family_hit") "us";
  add layer "protocol.v2_encode_us" (us "protocol.v2_encode") "us";
  add layer "protocol.v2_decode_us" (us "protocol.v2_decode") "us";
  add layer "protocol.v1_parse_us" (us "protocol.v1_parse") "us"

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type ctx = { rng : Random.State.t; seconds : float; trace : bool; dda : string }

(* Untraced passes (all of [seconds], or the first half of a traced run),
   then traced passes; returns the untraced walls and the overhead share. *)
let measure ctx pass =
  if not ctx.trace then (run_passes ~seconds:ctx.seconds pass, 0.)
  else begin
    let plain = run_passes ~seconds:(ctx.seconds /. 2.) pass in
    Trace.on := true;
    let traced = Trace.span "traced-passes" (fun () -> run_passes ~seconds:(ctx.seconds /. 2.) pass) in
    (plain, overhead_share ~traced ~plain)
  end

let add_setup (cal, raw) =
  add e2e "setup_s" cal "s";
  add detail "raw_setup_s" raw "s"

(* wall_s: every unit's median over the passes, summed over a pass's
   units, so that one slow unit moves only its own median. *)
let add_wall passes =
  let walls = List.map pass_time passes in
  if median (List.map snd walls) < min_timed_unit_s && not !smoke then
    failwith "pass shorter than the timer-jitter floor";
  let sum_of_medians f =
    List.fold_left ( +. ) 0. (List.mapi (fun j _ -> median (List.map (fun p -> f (List.nth p j)) passes)) (List.hd passes))
  in
  add e2e "wall_s" (sum_of_medians fst) "s";
  add detail "raw_wall_s" (sum_of_medians snd) "s";
  add detail "passes" (float_of_int (List.length walls)) "count";
  let a = sorted (List.map fst walls) in
  add detail "pass_spread" ((quantile a 0.75 -. quantile a 0.25) /. quantile a 0.5) "ratio"

(* explore / spill: cold, uncached, sequential exact decisions. *)
let decisions_workload ctx ~spill =
  let jobs =
    if spill then
      List.concat_map
        (fun (proto, topo, w, budget, rs) ->
          (* A line runs under both its presentations: the spilled peak
             RSS of line:babba is 10 % above that of line:abbab, so a
             seeded pick made peak_rss_mb depend on the seed. *)
          let specs () =
            match topo with
            | Line -> List.map (spec_of topo) (presentations topo w)
            | _ -> [ present ctx.rng topo w ]
          in
          List.concat_map
            (fun regime ->
              List.map
                (fun spec -> { proto; canon = spec_of topo w; spec; regime; reduce = false; budget = Some budget })
                (specs ()))
            rs)
        (spill_classes ())
    else
      List.concat_map
        (fun (proto, topo, w, reduce) ->
          List.map
            (fun regime -> { proto; canon = spec_of topo w; spec = present ctx.rng topo w; regime; reduce; budget = None })
            regimes)
        (explore_classes ())
  in
  let prepared = List.map prepare jobs in
  let walls, overhead =
    measure ctx (fun pass ->
        Trace.span ~id:pass "pass" (fun () ->
            let units, cs = decision_pass prepared in
            record_counts pass cs;
            units))
  in
  add_setup (time_setup (fun () -> ignore (List.map prepare jobs)));
  add_wall walls;
  add e2e "peak_rss_mb" !first_pass_rss "MB";
  if ctx.trace then begin
    let resident_probe = if spill then List.map (fun j -> prepare { j with budget = None }) jobs else [] in
    let spill_probe = if spill then [] else List.map prepare (spill_probe_jobs ()) in
    per_layer ~concrete:jobs ~resident_probe ~spill_probe ~overhead
  end

(* batch: Batch.run over a manifest of small jobs, cold into a fresh store
   (families and concrete jobs, then family instances answered from the
   family entries), then warm against a freshly opened disk-only handle.
   The job order is fixed (as in explore and spill): the seed picks the
   presentations only, since the peak RSS depends on the order. *)
let batch_workload ctx =
  let concrete = concrete_jobs ctx.rng in
  let fams = family_jobs () in
  let insts =
    List.concat_map
      (fun (proto, topo, w, regime) ->
        List.map
          (fun n ->
            let c = spec_of topo (instance_word w n) in
            { proto; canon = c; spec = c; regime; reduce = false; budget = None })
          (instance_sizes ()))
      fams
  in
  let entry proto spec regime =
    Printf.sprintf "{\"protocol\":%s,\"graph\":%s,\"regime\":\"%s\",\"max_configs\":200000}"
      (Json.to_string (Json.Str proto)) (Json.to_string (Json.Str spec)) (Spec.regime_name regime)
  in
  let manifest entries = "{\"schema\":\"dda.batch-manifest/1\",\"jobs\":[" ^ String.concat "," entries ^ "]}" in
  let stage_a_doc =
    manifest
      (List.map (fun j -> entry j.proto j.spec j.regime) concrete
      @ List.map (fun (p, t, w, r) -> entry p (spec_of t w ^ "*") r) fams)
  in
  let stage_b_doc = manifest (List.map (fun j -> entry j.proto j.spec j.regime) insts) in
  let parse doc = ok_exn "manifest" (Batch.manifest_of_string doc) in
  (* set-up: parse the manifests and open the store.  Creating a store
     directory is one mkdir, whose latency on a virtual disk swings several
     fold between runs; every cold pass creates its own fresh store, so
     that cost is timed in wall_s instead. *)
  let time_batch_setup () =
    let setup_dir = fresh_dir "setup-store" in
    let setup =
      time_setup (fun () ->
          ignore (parse stage_a_doc);
          ignore (parse stage_b_doc);
          ignore (Store.open_ ~root:setup_dir ()))
    in
    rm_rf setup_dir;
    setup
  in
  let stage_a = parse stage_a_doc and stage_b = parse stage_b_doc in
  let n_jobs = List.length stage_a + List.length stage_b in
  let n_concrete = List.length concrete in
  let cold_rates = ref [] and warm_rates = ref [] and compute_shares = ref [] and fam_hits = ref 0 in
  let outcome_of what = function
    | Batch.Done d -> d
    | Batch.Failed m -> failwith (what ^ " failed: " ^ m)
    | Batch.Skipped | Batch.Interrupted -> failwith (what ^ " did not run")
  in
  let walls, overhead =
    measure ctx (fun pass ->
        Trace.span ~id:pass "pass" (fun () ->
            (* two timed units, the cold and the warm half, each calibrated *)
            let dir = Filename.concat !tmp_root (Printf.sprintf "store-%d" pass) in
            let cold_runs = ref None and warm_run = ref None in
            let cold_u =
              Calib.after (fun () ->
                  let t0 = now () in
                  let store = Trace.span "store.open" (fun () -> Store.open_ ~root:dir ()) in
                  let ra = Trace.span "batch.run_cold" (fun () -> Batch.run ~cache:store ~shards:1 stage_a) in
                  let rb = Trace.span "batch.run_cold_instances" (fun () -> Batch.run ~cache:store ~shards:1 stage_b) in
                  cold_runs := Some (ra, rb);
                  now () -. t0)
            in
            let warm_u =
              Calib.after (fun () ->
                  let t1 = now () in
                  let warm_store = Trace.span "store.open" (fun () -> Store.open_ ~root:dir ()) in
                  warm_run :=
                    Some (Trace.span "batch.run_warm" (fun () -> Batch.run ~cache:warm_store ~shards:1 (stage_a @ stage_b)));
                  now () -. t1)
            in
            let ra, rb = Option.get !cold_runs and rw = Option.get !warm_run in
            let cold_s = fst cold_u and warm_s = fst warm_u in
            rm_rf dir;
            let cold = List.map (fun (_, o, _) -> o) (ra.Batch.jobs @ rb.Batch.jobs) in
            let warm = List.map (fun (_, o, _) -> o) rw.Batch.jobs in
            let described =
              List.map describe concrete
              @ List.map (fun (p, t, w, r) -> Printf.sprintf "%s %s* %s" p (spec_of t w) (Spec.regime_name r)) fams
              @ List.map describe insts
            in
            let computed_s = ref 0. and counted = ref 0 and configs = ref 0 in
            List.iteri
              (fun i (what, o) ->
                let d = outcome_of what o in
                let got = Printf.sprintf "%s/%d" (result_name d.Batch.result) d.Batch.configs in
                if i < n_concrete then begin
                  let j = List.nth concrete i in
                  let ev, ec = job_expected j in
                  check_op ~what:("cold " ^ what) ~expect:(Printf.sprintf "%s/%d" ev ec) ~got;
                  configs := !configs + d.Batch.configs;
                  computed_s := !computed_s +. d.Batch.seconds
                end
                else if i < n_concrete + List.length fams then begin
                  let p, t, w, r = List.nth fams (i - n_concrete) in
                  let ev, _ = expected ~proto:p ~canon:(spec_of t (instance_word w 5)) ~regime:r ~reduce:false in
                  check_op ~what:("cold family " ^ what) ~expect:ev ~got:(result_name d.Batch.result);
                  counted := !counted + d.Batch.configs;
                  computed_s := !computed_s +. d.Batch.seconds
                end
                else begin
                  let j = List.nth insts (i - n_concrete - List.length fams) in
                  let ev, _ = job_expected j in
                  check_op ~what:("cold instance (family = explicit) " ^ what)
                    ~expect:(ev ^ "/family")
                    ~got:(result_name d.Batch.result ^ if d.Batch.cached then "/family" else "/computed");
                  if d.Batch.cached then incr fam_hits
                end)
              (List.combine described cold);
            List.iter
              (fun ((what, c), w) ->
                let c = outcome_of what c and w = outcome_of what w in
                check_op ~what:("warm = cold " ^ what)
                  ~expect:(Printf.sprintf "%s/%d/cached" (result_name c.Batch.result) c.Batch.configs)
                  ~got:(Printf.sprintf "%s/%d/%s" (result_name w.Batch.result) w.Batch.configs
                          (if w.Batch.cached then "cached" else "computed")))
              (List.combine (List.combine described cold) warm);
            record_counts pass [ ("configs", !configs); ("symbolic.counted_configs", !counted) ];
            cold_rates := (float_of_int n_jobs /. cold_s) :: !cold_rates;
            warm_rates := (float_of_int n_jobs /. warm_s) :: !warm_rates;
            compute_shares := (!computed_s /. cold_s) :: !compute_shares;
            [ cold_u; warm_u ]))
  in
  add_setup (time_batch_setup ());
  add_wall walls;
  add e2e "peak_rss_mb" !first_pass_rss "MB";
  add detail "jobs_per_pass" (float_of_int n_jobs) "count";
  add detail "cold_jobs_per_s" (median !cold_rates) "1/s";
  add detail "warm_jobs_per_s" (median !warm_rates) "1/s";
  add detail "batch.compute_share" (median !compute_shares) "ratio";
  add detail "batch.family_hits" (float_of_int (!fam_hits / max 1 !passes_done)) "count";
  if ctx.trace then begin
    let resident_probe = List.map prepare concrete in
    per_layer ~concrete:(concrete @ insts) ~resident_probe ~spill_probe:(List.map prepare (spill_probe_jobs ())) ~overhead
  end

(* ------------------------------------------------------------------ *)
(* serve: a dda serve process driven closed-loop over one /2 connection  *)
(* ------------------------------------------------------------------ *)

(* The pipeline window of E14 and of `dda client --v2 --pipeline 16` in
   doc/SERVICE.md. *)
let window = 16

type wire = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable len : int }

let rec connect_retry addr deadline =
  match Client.connect ~version:2 ~timeout:1. addr with
  | Ok c -> c
  | Error e ->
    if now () > deadline then failwith ("connect: " ^ e)
    else begin
      Unix.sleepf 0.002;
      connect_retry addr deadline
    end

let wire_of c = { fd = Client.fd c; buf = Bytes.create 65536; len = 0 }

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* Blocking read of one chunk, then every complete frame's payload to [f]. *)
let read_frames w f =
  if w.len = Bytes.length w.buf then begin
    let b = Bytes.create (2 * Bytes.length w.buf) in
    Bytes.blit w.buf 0 b 0 w.len;
    w.buf <- b
  end;
  let n = Unix.read w.fd w.buf w.len (Bytes.length w.buf - w.len) in
  if n = 0 then failwith "server closed the connection";
  w.len <- w.len + n;
  let pos = ref 0 and go = ref true in
  while !go do
    if w.len - !pos >= 4 then begin
      let l = Protocol.frame_length (Bytes.sub_string w.buf !pos 4) in
      if w.len - !pos - 4 >= l then begin
        f (Bytes.sub_string w.buf (!pos + 4) l);
        pos := !pos + 4 + l
      end
      else go := false
    end
    else go := false
  done;
  Bytes.blit w.buf !pos w.buf 0 (w.len - !pos);
  w.len <- w.len - !pos

(* Closed loop with a pipeline window: the next request goes out only when
   a reply frees a slot, so the offered rate is whatever the server
   completes (rule 2: no metric is pinned by the generator). *)
let drive w (frames : string array) ~on_response =
  let n = Array.length frames in
  let t_send = Array.make n 0. in
  let sent = ref 0 and recvd = ref 0 in
  let out = Buffer.create 8192 in
  while !recvd < n do
    Buffer.clear out;
    let t = now () in
    while !sent < n && !sent - !recvd < window do
      Buffer.add_string out frames.(!sent);
      t_send.(!sent) <- t;
      incr sent
    done;
    if Buffer.length out > 0 then write_all w.fd (Buffer.contents out) 0 (Buffer.length out);
    read_frames w (fun payload ->
        let t = now () in
        match Protocol.decode_response_payload payload with
        | Ok r ->
          let i = int_of_string r.Protocol.rid in
          incr recvd;
          on_response i r ((t -. t_send.(i)) *. 1000.)
        | Error e -> failwith ("response: " ^ e))
  done

(* A reusable request template: the frame body without its id, re-framed
   per request with [Protocol.reframe], and the expected verdict and
   configuration count, looked up once. *)
type template = { tag : int; body : string; tjob : job; ev : string; ec : int }

let template ~max_configs j =
  let frame = Protocol.encode_request_frame (parse_request_exn (request_line ~id:0 ~max_configs j)) in
  let payload = String.sub frame 4 (String.length frame - 4) in
  let ev, ec = job_expected j in
  match Protocol.payload_body payload with
  | Some body -> { tag = Protocol.payload_tag payload; body; tjob = j; ev; ec }
  | None -> failwith "template: truncated payload"

let frame_of i t = Protocol.reframe ~tag:t.tag ~id:(string_of_int i) ~body:t.body

(* Runs inside the timed loop: compares the status fields directly and
   builds a message only on a mismatch. *)
let check_response ~what (t : template) (r : Protocol.response) ~want_cached =
  incr attempted;
  match r.Protocol.status with
  | Protocol.Verdict v when v.verdict = t.ev && v.configs = t.ec && (v.cached || not want_cached) -> ()
  | st ->
    let got =
      match st with
      | Protocol.Verdict v -> Printf.sprintf "%s/%d%s" v.verdict v.configs (if v.cached then "" else "/computed")
      | s -> Protocol.status_name s
    in
    fail_op (Printf.sprintf "%s %s: expected %s/%d, got %s" what (describe t.tjob) t.ev t.ec got)

let server_computed addr =
  let c = connect_retry addr (now () +. 10.) in
  let doc = ok_exn "stats" (Client.stats c) in
  Client.close c;
  match Json.parse doc with
  | Ok j -> (
    match Option.bind (Json.member "gauges" j) (Json.member "service.computed") with
    | Some (Json.Num v) -> int_of_float v
    | _ -> failwith "stats: no service.computed")
  | Error e -> failwith ("stats: " ^ e)

let spawn args =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log = Unix.openfile (Filename.concat !tmp_root "children.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process args.(0) args null log log in
  Unix.close null;
  Unix.close log;
  children := pid :: !children;
  pid

let wait_health addr =
  let deadline = now () +. 30. in
  let rec go () =
    let c = connect_retry addr deadline in
    let h = Client.health c in
    Client.close c;
    match h with
    | Ok "ok" -> ()
    | _ when now () < deadline ->
      Unix.sleepf 0.002;
      go ()
    | _ -> failwith "server never reported health ok"
  in
  go ()

type server = { pid : int; w : wire; sock : string; addr : Protocol.address }

let serve_workload ctx =
  let warm = Array.of_list (List.map (template ~max_configs:200_000) (shuffle ctx.rng (serve_jobs ctx.rng))) in
  let nwarm = Array.length warm in
  let per_pass = if !smoke then 2048 else 65536 in
  (* the never-seen keys: every small warm class (at most 1,000
     configurations, well under a millisecond of compute) once per pass,
     so each pass holds the same miss work and no queue builds behind a
     long computation *)
  let miss_classes = List.filter (fun t -> t.ec <= 1000) (Array.to_list warm) in
  let miss_id = ref 0 in
  let fill_computed = ref 0 and server_passes = ref 0 in
  let started = ref 0 in
  (* start, health ok, warm fill: the set-up a user pays *)
  let start_server ~log =
    incr started;
    let sock = Filename.concat !tmp_root (Printf.sprintf "s%d.sock" !started) in
    let addr = ok_exn "address" (Protocol.parse_address sock) in
    let cache = fresh_dir "serve-cache" in
    let args =
      [ ctx.dda; "serve"; "-l"; sock; "--cache=" ^ cache; "-j"; "1"; "--mem-cache"; "65536"; "--queue"; "1024"; "--conn-limit"; "64" ]
      @ (match log with Some f -> [ "--access-log"; f ] | None -> [])
    in
    let pid = spawn (Array.of_list args) in
    Calib.paused := pid :: !Calib.paused;
    wait_health addr;
    let w = wire_of (connect_retry addr (now () +. 10.)) in
    drive w (Array.mapi frame_of warm) ~on_response:(fun i r _ -> check_response ~what:"warm fill" warm.(i) r ~want_cached:false);
    { pid; w; sock; addr }
  in
  let stop_server sv =
    Unix.close sv.w.fd;
    Calib.paused := List.filter (( <> ) sv.pid) !Calib.paused;
    stop_child sv.pid
  in
  let keep sv =
    fill_computed := server_computed sv.addr;
    server_passes := 0;
    sv
  in
  (* seven set-ups, the last server kept for the measurement *)
  let servers = ref [] in
  let setup = time_setup ~heavy:true ~blocks:7 (fun () -> servers := start_server ~log:None :: !servers) in
  List.iter stop_server (List.tl !servers);
  let server = ref (keep (List.hd !servers)) in
  rss_pid := string_of_int !server.pid;
  let computed_expected = ref nwarm in
  let all_lat = ref [] and miss_lat = ref [] and rates = ref [] and hits = ref 0 and served = ref 0 in
  (* one pass: [per_pass] requests cycling through the warm keys from a
     seeded offset, as dda client cycles through its mix, plus one
     never-seen key per miss class (the class under a fresh budget) at a
     seeded position, sent twice back to back so the second can coalesce
     onto the first *)
  let build_pass () =
    let off = Random.State.int ctx.rng nwarm in
    let kinds = Array.init per_pass (fun i -> `Warm warm.((off + i) mod nwarm)) in
    List.iter
      (fun t ->
        (* pairs occupy disjoint even-aligned slots *)
        let rec slot () =
          let pos = 2 * Random.State.int ctx.rng (per_pass / 2) in
          match kinds.(pos) with `Warm _ -> pos | _ -> slot ()
        in
        let pos = slot () in
        incr miss_id;
        let m = template ~max_configs:(300_000 + !miss_id) t.tjob in
        kinds.(pos) <- `Miss m;
        kinds.(pos + 1) <- `Again m)
      miss_classes;
    let misses = Array.fold_left (fun a k -> match k with `Miss _ -> a + 1 | _ -> a) 0 kinds in
    computed_expected := !computed_expected + misses;
    kinds
  in
  let run_pass pass =
    let kinds = build_pass () in
    incr server_passes;
    let frames = Array.mapi (fun i k -> match k with `Warm t | `Miss t | `Again t -> frame_of i t) kinds in
    let lat = Array.make per_pass 0. in
    let w = !server.w in
    let t0 = now () in
    Trace.span ~id:pass "serve.pass" (fun () ->
        drive w frames ~on_response:(fun i r ms ->
            lat.(i) <- ms;
            incr served;
            (match r.Protocol.status with Protocol.Verdict { cached = true; _ } -> incr hits | _ -> ());
            match kinds.(i) with
            | `Warm t -> check_response ~what:"warm" t r ~want_cached:true
            | `Miss t -> check_response ~what:"miss (served = batch)" t r ~want_cached:false
            | `Again t -> check_response ~what:"coalesced miss" t r ~want_cached:false));
    let wall = now () -. t0 in
    Array.iteri (fun i k -> match k with `Miss _ -> miss_lat := lat.(i) :: !miss_lat | _ -> ()) kinds;
    all_lat := lat :: !all_lat;
    rates := (float_of_int per_pass /. wall) :: !rates;
    wall
  in
  let walls, overhead =
    if not ctx.trace then (run_passes ~seconds:ctx.seconds (whole run_pass), 0.)
    else begin
      let plain = run_passes ~seconds:(ctx.seconds /. 2.) (whole run_pass) in
      (* the traced posture: a fresh server with its access log on *)
      stop_server !server;
      let log = Filename.concat !tmp_root "access.log" in
      server := keep (start_server ~log:(Some log));
      computed_expected := nwarm;
      Trace.on := true;
      let traced = run_passes ~seconds:(ctx.seconds /. 2.) (whole run_pass) in
      (plain, overhead_share ~traced ~plain)
    end
  in
  let sv = !server in
  let computed = server_computed sv.addr in
  (* every warm key computes once in the fill, every never-seen key once *)
  incr attempted;
  if computed <> !computed_expected then
    fail_op (Printf.sprintf "server.computed = %d, expected %d" computed !computed_expected);
  record_counts 0
    [ ("server.computed_fill", !fill_computed); ("server.computed_per_pass", (computed - !fill_computed) / max 1 !server_passes) ];
  add_setup setup;
  add_wall walls;
  add e2e "peak_rss_mb" !first_pass_rss "MB";
  add detail "req_per_s" (median !rates) "1/s";
  add_latency_detail "request" (Array.concat !all_lat);
  add_latency_detail "miss" (Array.of_list !miss_lat);
  add detail "server.hit_share" (float_of_int !hits /. float_of_int (max 1 !served)) "ratio";
  if ctx.trace then begin
    (* router hop: the same warm frames direct and through a one-backend
       dda route, alternating *)
    let rsock = Filename.concat !tmp_root "r.sock" in
    let raddr = ok_exn "address" (Protocol.parse_address rsock) in
    let rpid = spawn [| ctx.dda; "route"; "-l"; rsock; "-b"; sv.sock |] in
    wait_health raddr;
    let rw = wire_of (connect_retry raddr (now () +. 10.)) in
    let frames = Array.init per_pass (fun i -> frame_of i warm.(i mod nwarm)) in
    let time_on w =
      let t0 = now () in
      drive w frames ~on_response:(fun i r _ -> check_response ~what:"routed" warm.(i mod nwarm) r ~want_cached:true);
      now () -. t0
    in
    let direct = ref [] and routed = ref [] in
    for _ = 1 to 3 do
      direct := time_on sv.w :: !direct;
      routed := Trace.span "router.pass" (fun () -> time_on rw) :: !routed
    done;
    add detail "router.hop_us" ((median !routed -. median !direct) /. float_of_int per_pass *. 1e6) "us";
    Unix.close rw.fd;
    stop_child rpid;
    (* server-side latency split from the access log *)
    stop_server sv;
    let lines = String.split_on_char '\n' (read_file (Filename.concat !tmp_root "access.log")) in
    let q = ref [] and c = ref [] in
    List.iter
      (fun l ->
        match Json.parse l with
        | Ok j -> (
          (match Json.member "queue_ms" j with Some (Json.Num v) -> q := v :: !q | _ -> ());
          match (Json.member "tier" j, Json.member "compute_ms" j) with
          | Some (Json.Str "none"), Some (Json.Num v) -> c := v :: !c
          | _ -> ())
        | Error _ -> ())
      lines;
    add_latency_detail "server.queue" (Array.of_list !q);
    add_latency_detail "server.compute" (Array.of_list !c);
    let concrete = Array.to_list (Array.map (fun t -> t.tjob) warm) in
    (* the mix is F only; the resident probe covers both regimes *)
    let both = List.concat_map (fun j -> [ j; { j with regime = Spec.Adversarial } ]) concrete in
    per_layer ~concrete ~resident_probe:(List.map prepare both)
      ~spill_probe:(List.map prepare (spill_probe_jobs ())) ~overhead
  end
  else stop_server sv

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_num v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let env_line ~workload ~seed =
  let getenv k d = match Sys.getenv_opt k with Some v when v <> "" -> v | _ -> d in
  let spill_dir = getenv "DDA_SPILL_DIR" "_dda_spill" in
  (try Unix.mkdir spill_dir 0o755 with Unix.Unix_error _ -> ());
  Printf.printf
    "env {\"workload\":%S,\"seed\":%d,\"nproc\":%s,\"cpu\":%s,\"ocaml\":%S,\"commit\":%S,\"spill_fs\":%S,\"store_fs\":%S,\"smoke\":%b}\n"
    workload seed (getenv "PERFBENCH_NPROC" "null") (getenv "PERFBENCH_CPU" "null") Sys.ocaml_version (getenv "PERFBENCH_COMMIT" "unknown")
    (fs_type spill_dir) (fs_type !tmp_root) !smoke

let print_result ~trace =
  let ok_share = if !attempted = 0 then 0. else float_of_int (!attempted - !failed) /. float_of_int !attempted in
  if not trace then add e2e "ok_share" ok_share "ratio";
  List.iter (fun (k, v) -> Printf.printf "count %s %d\n" k v) !counts;
  List.iter (fun (n, v, u) -> Printf.printf "detail %s %.6g %s\n" n v u) !detail;
  List.iter (fun (n, v, u) -> Printf.printf "layer %s %.6g %s\n" n v u) !layer;
  List.iter (fun (n, v, u) -> Printf.printf "metric %s %.6g %s\n" n v u) !e2e;
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev !failures);
  let shown = if trace then !layer else !e2e in
  let correct = !failed = 0 && not !count_mismatch in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct (max 1 !attempted) !failed
    (String.concat ","
       (List.map (fun (n, v, u) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (json_num v) u) shown));
  correct

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let dda = ref "_build/default/bin/dda.exe" and mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "explore | spill | batch | serve");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  traced per-layer run");
      ("--dda", Arg.Set_string dda, "PATH  the dda executable (serve workload)");
      ("--tmp", Arg.Set_string tmp_root, "DIR  scratch directory (stores, spill files, sockets, traces)");
      ("--smoke", Arg.Set smoke, " tiny instances (self-test)");
      ("--golden", Arg.Unit (fun () -> mode := `Golden), " print the golden table from the resident explicit engine");
      ("--check-golden", Arg.Unit (fun () -> mode := `Check), " recompute the golden table and compare");
      ("--inject-mismatch", Arg.Unit (fun () -> mode := `Inject), " corrupt one expectation (self-test of the gate)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  match !mode with
  | `Golden -> golden_mode false
  | `Check -> golden_mode true
  | (`Run | `Inject) as mode ->
    if mode = `Inject then begin
      let tbl = Lazy.force golden_tbl in
      Hashtbl.filter_map_inplace (fun _ (v, c) -> Some (v, c + 1)) tbl
    end;
    (try Unix.mkdir !tmp_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Calib.start ();
    let rng = Random.State.make [| !seed; Hashtbl.hash !workload |] in
    let ctx = { rng; seconds = !seconds; trace = !trace = 1; dda = !dda } in
    env_line ~workload:!workload ~seed:!seed;
    (match !workload with
    | "explore" ->
      Calib.kind := `Both;
      decisions_workload ctx ~spill:false
    | "spill" -> decisions_workload ctx ~spill:true
    | "batch" -> batch_workload ctx
    | "serve" -> serve_workload ctx
    | w -> failwith ("unknown workload " ^ w));
    List.iter stop_child !children;
    if ctx.trace then Trace.write (Filename.concat !tmp_root (Printf.sprintf "trace-%s-%d.json" !workload !seed));
    let correct = print_result ~trace:ctx.trace in
    exit (if correct then 0 else 1)

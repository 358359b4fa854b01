(* The batch subsystem: fingerprints, the on-disk verdict store, and the
   sharded runner.  The differential tests at the bottom are the
   acceptance criterion of the caching work: cached and fresh verdicts
   must be indistinguishable. *)

module G = Dda_graph.Graph
module Machine = Dda_machine.Machine
module Fp = Dda_batch.Fingerprint
module Store = Dda_batch.Store
module Spec = Dda_batch.Spec
module Batch = Dda_batch.Batch
module Decide = Dda_verify.Decide
module Server = Dda_service.Server
module Client = Dda_service.Client
module Sproto = Dda_service.Protocol

let exists_a = Dda_protocols.Cutoff_one.exists_label ~alphabet:[ "a"; "b" ] "a"
let ab = [ "a"; "b" ]

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let replace_first ~needle ~by haystack =
  let n = String.length needle and h = String.length haystack in
  let rec find i = if i + n > h then None else if String.sub haystack i n = needle then Some i else find (i + 1) in
  match find 0 with
  | None -> haystack
  | Some i -> String.sub haystack 0 i ^ by ^ String.sub haystack (i + n) (h - i - n)

(* --- temp cache roots ------------------------------------------------------ *)

let dir_counter = ref 0

let fresh_root () =
  incr dir_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dda_test_cache.%d.%d" (Unix.getpid ()) !dir_counter)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_store f =
  let root = fresh_root () in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () -> f (Store.open_ ~root ()))

(* --- fingerprints ---------------------------------------------------------- *)

let test_machine_fingerprint_stable () =
  let fp1 = Fp.machine ~labels:ab exists_a in
  let fp2 = Fp.machine ~labels:ab exists_a in
  Alcotest.(check string) "same machine, same fingerprint" fp1 fp2;
  Alcotest.(check bool) "small machine tabulates (not nominal)" true
    (String.length fp1 > 4 && String.sub fp1 0 4 = "tab:");
  (* behavioural: a renamed copy of the same machine fingerprints equally *)
  let renamed = Machine.rename "renamed-exists-a" exists_a in
  Alcotest.(check string) "name does not enter a tabulated fingerprint" fp1
    (Fp.machine ~labels:ab renamed)

let test_machine_fingerprint_distinguishes () =
  let fp = Fp.machine ~labels:ab exists_a in
  let threshold = Dda_protocols.Cutoff_broadcast.threshold ~alphabet:ab ~label:"a" ~k:2 in
  Alcotest.(check bool) "different behaviour, different fingerprint" true
    (fp <> Fp.machine ~labels:ab threshold);
  Alcotest.(check bool) "different alphabet, different fingerprint" true
    (fp <> Fp.machine ~labels:[ "a"; "b"; "c" ] exists_a)

let test_graph_fingerprint_isomorphism () =
  (* rotations and reflections of a labelled cycle are isomorphic *)
  let fp1 = Fp.graph (G.cycle [ "a"; "b"; "b"; "c" ]) in
  let fp2 = Fp.graph (G.cycle [ "b"; "b"; "c"; "a" ]) in
  let fp3 = Fp.graph (G.cycle [ "c"; "b"; "b"; "a" ]) in
  Alcotest.(check string) "rotation" fp1 fp2;
  Alcotest.(check string) "reflection" fp1 fp3;
  Alcotest.(check bool) "different multiset differs" true
    (fp1 <> Fp.graph (G.cycle [ "a"; "a"; "b"; "c" ]));
  Alcotest.(check bool) "topology differs" true
    (fp1 <> Fp.graph (G.line [ "a"; "b"; "b"; "c" ]))

(* Digests as computed by the full symmetric-group search, which the pruned
   search replaced: caches written before keep answering.  The list covers
   every graph of the benchmark's batch manifest plus a size-5 clique and
   star, n = 2..7, and a 9-node graph on the raw (uncanonicalised) path. *)
let pinned_graph_fingerprints =
  [
    ("line:ab", "can:fcfd7541b9a0dde2366f727b3e935e6f");
    ("line:aab", "can:1147c0b22e94f9a938600bd6a5d5ade9");
    ("line:abb", "can:a83aad3a72a39e3d9aa8cf13be160285");
    ("cycle:abb", "can:8ce6bcba690310dd161663f5aad1bf8e");
    ("line:aabb", "can:683220cb90c61fcdd231e1ad4e93145e");
    ("line:abab", "can:3d50d89ae52b09cd7d5f6a822e36db3d");
    ("cycle:aabb", "can:1610de6fc8b98e6285d3455d4a31555b");
    ("grid:2x2:aaab", "can:5c619c0e57e250033bbd03cfd68091d8");
    ("cycle:aabab", "can:e7a88a44120a8c20aad93386739491a6");
    ("clique:abbbb", "can:ff6b92c3dfc9d49c8036add72ed146e6");
    ("star:baaaa", "can:9204a8b19e57dd9b9bb7ac6b9b8edf03");
    ("grid:3x2:aabbab", "can:a98901abc0f609bc10cce3a9fac27dfa");
    ("line:abbaaba", "can:220b0d3901f3d994f87462fadbf2b6d0");
    ("line:abababaab", "raw:cb2469e3734a37f8da3bfe0f7e256402");
  ]

let test_graph_fingerprint_pinned () =
  List.iter
    (fun (spec, digest) ->
      match Spec.parse_graph spec with
      | Ok g -> Alcotest.(check string) spec digest (Fp.graph g)
      | Error e -> Alcotest.fail e)
    pinned_graph_fingerprints;
  (* one node: the only permutation is the identity ("1#a,;") *)
  Alcotest.(check string) "clique:a"
    ("can:" ^ Digest.to_hex (Digest.string "1#a,;"))
    (Fp.graph (G.clique [ "a" ]))

(* The reference definition: the least serialisation over every node
   permutation, enumerated without pruning. *)
let brute_force_graph_fingerprint g =
  let n = G.nodes g in
  let serialise p =
    let b = Buffer.create 64 in
    Array.iter (fun v -> Buffer.add_string b (String.escaped (G.label g v) ^ ",")) p;
    Buffer.add_char b ';';
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        Buffer.add_char b (if G.adjacent g p.(i) p.(j) then '1' else '0')
      done
    done;
    Buffer.contents b
  in
  let rec perms = function
    | [] -> [ [] ]
    | xs -> List.concat_map (fun x -> List.map (List.cons x) (perms (List.filter (( <> ) x) xs))) xs
  in
  let best =
    List.fold_left
      (fun acc p -> min acc (serialise (Array.of_list p)))
      (serialise (Array.init n Fun.id))
      (perms (List.init n Fun.id))
  in
  "can:" ^ Digest.to_hex (Digest.string (Printf.sprintf "%d#%s" n best))

(* labels of different lengths exercise the variable-width prefix *)
let random_labelled_graph =
  QCheck.Gen.(
    int_range 1 6 >>= fun n ->
    array_size (return n) (oneofl [ "a"; "b"; "ab"; "" ]) >>= fun labels ->
    list_size (int_bound (n * n)) (pair (int_bound (n - 1)) (int_bound (n - 1))) >>= fun es ->
    return (G.of_edges ~labels (List.filter (fun (u, v) -> u <> v) es)))

let test_graph_fingerprint_brute_force =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"pruned search = brute force"
       (QCheck.make random_labelled_graph)
       (fun g -> Fp.graph g = brute_force_graph_fingerprint g))

let test_graph_fingerprint_eight_nodes () =
  (* two presentations of one 8-node graph, uniform and mixed labels *)
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 0); (4, 5); (5, 6); (6, 7); (7, 4); (0, 4); (2, 6) ] in
  let p = [| 3; 6; 0; 7; 2; 5; 1; 4 |] in
  let renamed = List.map (fun (u, v) -> (p.(u), p.(v))) edges in
  List.iter
    (fun labels ->
      let labels' = Array.make 8 "" in
      Array.iteri (fun v l -> labels'.(p.(v)) <- l) labels;
      let t0 = Unix.gettimeofday () in
      let a = Fp.graph (G.of_edges ~labels edges) in
      let b = Fp.graph (G.of_edges ~labels:labels' renamed) in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check string) "isomorphic presentations" a b;
      Alcotest.(check bool) (Printf.sprintf "within 1 s (%.3f s)" dt) true (dt < 1.0))
    [ Array.make 8 "a"; [| "a"; "b"; "a"; "b"; "b"; "a"; "a"; "b" |] ]

let test_key_sensitivity () =
  let m = Fp.machine ~labels:ab exists_a in
  let g = Fp.graph (G.cycle [ "a"; "b"; "b" ]) in
  let key = Fp.key ~machine:m ~graph:g ~regime:"F" ~max_configs:1000 () in
  Alcotest.(check string) "deterministic" key
    (Fp.key ~machine:m ~graph:g ~regime:"F" ~max_configs:1000 ());
  Alcotest.(check bool) "regime enters the key" true
    (key <> Fp.key ~machine:m ~graph:g ~regime:"f" ~max_configs:1000 ());
  Alcotest.(check bool) "budget enters the key" true
    (key <> Fp.key ~machine:m ~graph:g ~regime:"F" ~max_configs:1001 ());
  Alcotest.(check bool) "machine enters the key" true
    (key <> Fp.key ~machine:(m ^ "x") ~graph:g ~regime:"F" ~max_configs:1000 ())

(* --- the store ------------------------------------------------------------- *)

let entry ?(verdict = Store.Verdict Decide.Accepts) key =
  {
    Store.key;
    machine = "tab:m";
    graph = "can:g";
    regime = "F";
    max_configs = 1000;
    verdict;
    configs = 42;
    seconds = 0.5;
    engine = "explicit";
    family = None;
  }

let some_key = String.make 32 'a'

let test_store_roundtrip () =
  with_store (fun store ->
      List.iteri
        (fun i verdict ->
          let key = String.make 32 (Char.chr (Char.code 'a' + i)) in
          Store.put store (entry ~verdict key);
          match Store.find store key with
          | None -> Alcotest.fail "entry not found after put"
          | Some e ->
            Alcotest.(check bool) "verdict survives the round-trip" true
              (e.Store.verdict = verdict);
            Alcotest.(check int) "configs survive" 42 e.Store.configs)
        [ Store.Verdict Decide.Accepts; Store.Verdict Decide.Rejects;
          Store.Verdict (Decide.Inconsistent "w: 0 1"); Store.Bounded 7 ];
      let s = Store.stats store in
      Alcotest.(check int) "four entries on disk" 4 s.Store.entries;
      Alcotest.(check int) "none corrupt" 0 s.Store.corrupt)

let test_store_missing_and_invalid () =
  with_store (fun store ->
      Alcotest.(check bool) "absent key is a miss" true
        (Store.find store some_key = None);
      Alcotest.(check bool) "invalid key is a miss, not a crash" true
        (Store.find store "../../etc/passwd" = None))

let corrupt_path store key =
  (* mirror the store layout: <root>/<2 hex>/<key>.json *)
  Filename.concat
    (Filename.concat (Store.root store) (String.sub key 0 2))
    (key ^ ".json")

let test_store_corrupt_entry () =
  with_store (fun store ->
      Store.put store (entry some_key);
      Alcotest.(check bool) "entry present" true (Store.find store some_key <> None);
      Out_channel.with_open_bin (corrupt_path store some_key) (fun oc ->
          Out_channel.output_string oc "garbage{{");
      Alcotest.(check bool) "corrupt entry reads as a miss" true
        (Store.find store some_key = None);
      Alcotest.(check int) "verify flags it" 1 (List.length (Store.verify store));
      Alcotest.(check int) "gc removes it" 1 (Store.gc store);
      Alcotest.(check int) "store clean after gc" 0 (List.length (Store.verify store));
      (* truncated file: cut a valid entry in half *)
      Store.put store (entry some_key);
      let path = corrupt_path store some_key in
      let contents = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub contents 0 (String.length contents / 2)));
      Alcotest.(check bool) "truncated entry reads as a miss" true
        (Store.find store some_key = None))

let test_store_stale_salt () =
  with_store (fun store ->
      Store.put store (entry some_key);
      let path = corrupt_path store some_key in
      let contents = In_channel.with_open_bin path In_channel.input_all in
      let doctored = replace_first ~needle:Fp.version_salt ~by:"dda-engine/0" contents in
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc doctored);
      Alcotest.(check bool) "foreign-salt entry reads as a miss" true
        (Store.find store some_key = None);
      let s = Store.stats store in
      Alcotest.(check int) "counted as stale, not corrupt" 1 s.Store.stale;
      Alcotest.(check int) "gc removes stale entries" 1 (Store.gc store))

(* --- the in-memory LRU tier ------------------------------------------------- *)

module Lru = Dda_batch.Lru

let test_lru_eviction_order () =
  (* one shard: the global recency order is deterministic *)
  let l = Lru.create ~shards:1 ~capacity:3 () in
  ignore (Lru.put l "a" 1);
  ignore (Lru.put l "b" 2);
  ignore (Lru.put l "c" 3);
  (match Lru.find l "a" with
  | `Hit 1 -> () (* refreshes recency: "b" is now least recent *)
  | _ -> Alcotest.fail "a should hit");
  Alcotest.(check int) "insert at capacity evicts one" 1 (Lru.put l "d" 4);
  (match Lru.find l "b" with
  | `Miss -> ()
  | _ -> Alcotest.fail "the least-recently-used entry (b) must be the one evicted");
  List.iter
    (fun (k, v) ->
      match Lru.find l k with
      | `Hit v' when v' = v -> ()
      | _ -> Alcotest.failf "%s should survive the eviction" k)
    [ ("a", 1); ("c", 3); ("d", 4) ];
  Alcotest.(check int) "overwrite evicts nothing" 0 (Lru.put l "a" 10);
  (match Lru.find l "a" with `Hit 10 -> () | _ -> Alcotest.fail "overwrite visible");
  let s = Lru.stats l in
  Alcotest.(check int) "size at capacity" 3 s.Lru.size;
  Alcotest.(check int) "capacity" 3 s.Lru.capacity;
  Alcotest.(check int) "one eviction counted" 1 s.Lru.evictions;
  Lru.remove l "a";
  (match Lru.find l "a" with `Miss -> () | _ -> Alcotest.fail "remove removes");
  Lru.flush l;
  Alcotest.(check int) "flush empties" 0 (Lru.stats l).Lru.size

let test_lru_sharding_bound () =
  let l = Lru.create ~shards:4 ~capacity:8 () in
  for i = 0 to 99 do
    ignore (Lru.put l (Printf.sprintf "key-%d" i) i)
  done;
  let s = Lru.stats l in
  Alcotest.(check int) "capacity is the per-shard split summed" 8 s.Lru.capacity;
  Alcotest.(check bool) "size bounded by capacity" true (s.Lru.size <= s.Lru.capacity);
  Alcotest.(check int) "evictions account for the overflow" (100 - s.Lru.size)
    s.Lru.evictions

let test_lru_negative_ttl () =
  let now = 1000. in
  let l = Lru.create ~shards:1 ~negative_ttl:5. ~capacity:8 () in
  Lru.note_absent ~now l "k";
  (match Lru.find ~now:(now +. 4.9) l "k" with
  | `Negative -> ()
  | _ -> Alcotest.fail "tombstone live within the TTL");
  (match Lru.find ~now:(now +. 5.1) l "k" with
  | `Miss -> ()
  | _ -> Alcotest.fail "tombstone expires after the TTL");
  (* a tombstone never shadows a live value *)
  ignore (Lru.put l "v" 7);
  Lru.note_absent ~now l "v";
  (match Lru.find ~now l "v" with
  | `Hit 7 -> ()
  | _ -> Alcotest.fail "note_absent must not clobber a live entry");
  (* a local put supersedes the tombstone immediately, no TTL wait *)
  Lru.note_absent ~now l "w";
  ignore (Lru.put l "w" 9);
  (match Lru.find ~now l "w" with
  | `Hit 9 -> ()
  | _ -> Alcotest.fail "put supersedes the tombstone");
  (* ttl <= 0 disables negative caching entirely *)
  let l0 = Lru.create ~shards:1 ~negative_ttl:0. ~capacity:2 () in
  Lru.note_absent ~now l0 "x";
  match Lru.find ~now l0 "x" with
  | `Miss -> ()
  | _ -> Alcotest.fail "negative caching disabled at ttl 0"

let test_lru_negative_monotonic_clock () =
  (* regression: the default expiry clock must be the monotonic clock, not
     wall time.  A tombstone noted with the default clock must expire when
     probed at [monotonic + ttl + eps] — under the old gettimeofday default
     the expiry sat ~50 years past any monotonic instant (uptime-based),
     so tombstones never aged out against an injected monotonic [~now]
     (and a wall-clock step could pin or instantly expire them). *)
  let mono = Dda_telemetry.Telemetry.monotonic in
  let l = Lru.create ~shards:1 ~negative_ttl:5. ~capacity:8 () in
  Lru.note_absent l "k";
  (match Lru.find ~now:(mono () +. 1.) l "k" with
  | `Negative -> ()
  | _ -> Alcotest.fail "tombstone live within the TTL on the monotonic clock");
  (match Lru.find ~now:(mono () +. 6.) l "k" with
  | `Miss -> ()
  | _ -> Alcotest.fail "tombstone must expire against the monotonic clock");
  (* and the default-clock probe agrees with the default-clock note *)
  Lru.note_absent l "j";
  match Lru.find l "j" with
  | `Negative -> ()
  | _ -> Alcotest.fail "fresh tombstone visible on the default clock"

let test_lru_concurrent_readers () =
  (* readers and writers hammering all shards while evictions churn: the
     invariants are "never crashes" and "stays within the bound" *)
  let l = Lru.create ~shards:4 ~capacity:64 () in
  let threads =
    List.init 8 (fun t ->
        Thread.create
          (fun () ->
            for i = 0 to 9_999 do
              let k = Printf.sprintf "k%d" ((i * (t + 1)) mod 256) in
              match Lru.find l k with
              | `Hit _ | `Negative -> ()
              | `Miss -> ignore (Lru.put l k i)
            done)
          ())
  in
  List.iter Thread.join threads;
  let s = Lru.stats l in
  Alcotest.(check bool) "bound holds under concurrency" true (s.Lru.size <= s.Lru.capacity);
  Alcotest.(check bool) "traffic happened" true (s.Lru.hits + s.Lru.misses > 0)

(* --- the store's memo tier --------------------------------------------------- *)

let with_memo_store ?negative_ttl f =
  let root = fresh_root () in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () -> f root (Store.open_ ~root ~memo:64 ?negative_ttl ()))

let test_memo_serves_from_ram () =
  with_memo_store (fun _root store ->
      Store.put store (entry some_key);
      (* delete the backing file: a hit now can only come from the memo —
         this is the single-decode regression test (no re-read, no
         re-parse on the warm path) *)
      Sys.remove (corrupt_path store some_key);
      (match Store.find store some_key with
      | Some e -> Alcotest.(check int) "decoded entry intact" 42 e.Store.configs
      | None -> Alcotest.fail "warm hit must be served from RAM");
      match Store.memo_stats store with
      | Some s -> Alcotest.(check bool) "memo hit counted" true (s.Lru.hits >= 1)
      | None -> Alcotest.fail "memo_stats present when the tier is on")

let test_memo_negative_entries () =
  with_memo_store ~negative_ttl:0.05 (fun root store ->
      Alcotest.(check bool) "cold miss" true (Store.find store some_key = None);
      (* a write by another process is invisible while the tombstone lives,
         and visible after at most the TTL *)
      let other = Store.open_ ~root () in
      Store.put other (entry some_key);
      Unix.sleepf 0.1;
      (match Store.find store some_key with
      | Some _ -> ()
      | None -> Alcotest.fail "foreign write visible after the negative TTL");
      (* a local put supersedes its own tombstone immediately *)
      let k2 = String.make 32 'b' in
      Alcotest.(check bool) "k2 misses" true (Store.find store k2 = None);
      Store.put store (entry k2);
      Alcotest.(check bool) "local put visible immediately" true
        (Store.find store k2 <> None))

let test_memo_gc_flushes () =
  with_memo_store (fun _root store ->
      Store.put store (entry some_key);
      Alcotest.(check bool) "warm" true (Store.find store some_key <> None);
      ignore (Store.gc store);
      Sys.remove (corrupt_path store some_key);
      Alcotest.(check bool) "gc flushed the memo: the key is gone for real" true
        (Store.find store some_key = None))

let test_memo_lock_flushes () =
  with_memo_store (fun _root store ->
      Store.put store (entry some_key);
      Alcotest.(check bool) "warm" true (Store.find store some_key <> None);
      match Store.lock store ~mode:`Shared with
      | Error e -> Alcotest.failf "shared lock: %s" e
      | Ok l ->
        Fun.protect
          ~finally:(fun () -> Store.unlock l)
          (fun () ->
            Sys.remove (corrupt_path store some_key);
            Alcotest.(check bool)
              "lock acquisition flushed the memo (another process may have gc'd)" true
              (Store.find store some_key = None)))

(* --- cached decisions ------------------------------------------------------ *)

let decision_result (d : Batch.decision) = d.Batch.result

let check_result msg a b =
  Alcotest.(check bool) msg true
    (match (a, b) with
    | Batch.Verdict va, Batch.Verdict vb -> va = vb
    | Batch.Bounded na, Batch.Bounded nb -> na = nb
    | _ -> false)

let test_cached_decide_matches_fresh () =
  with_store (fun store ->
      let g = G.cycle [ "a"; "b"; "b" ] in
      let fresh =
        Batch.decide ~regime:Spec.Pseudo_stochastic ~max_configs:10_000 exists_a g
      in
      let cold =
        Batch.decide ~cache:store ~regime:Spec.Pseudo_stochastic ~max_configs:10_000 exists_a g
      in
      let warm =
        Batch.decide ~cache:store ~regime:Spec.Pseudo_stochastic ~max_configs:10_000 exists_a g
      in
      check_result "cold run matches the uncached verdict" (decision_result fresh)
        (decision_result cold);
      check_result "warm run matches too" (decision_result fresh) (decision_result warm);
      Alcotest.(check bool) "cold was computed" false cold.Batch.cached;
      Alcotest.(check bool) "warm was a hit" true warm.Batch.cached;
      Alcotest.(check int) "hit reports the original configs" cold.Batch.configs
        warm.Batch.configs)

let test_cached_decide_recovers_from_corruption () =
  with_store (fun store ->
      let g = G.cycle [ "a"; "b"; "b" ] in
      let regime = Spec.Pseudo_stochastic and max_configs = 10_000 in
      let cold = Batch.decide ~cache:store ~regime ~max_configs exists_a g in
      let key =
        Fp.key
          ~machine:(Fp.machine ~labels:ab exists_a)
          ~graph:(Fp.graph g) ~regime:(Spec.regime_name regime) ~max_configs ()
      in
      Out_channel.with_open_bin (corrupt_path store key) (fun oc ->
          Out_channel.output_string oc "]]not json");
      let recomputed = Batch.decide ~cache:store ~regime ~max_configs exists_a g in
      Alcotest.(check bool) "corrupt entry forces a recompute" false
        recomputed.Batch.cached;
      check_result "recomputed verdict matches" (decision_result cold)
        (decision_result recomputed);
      let warm = Batch.decide ~cache:store ~regime ~max_configs exists_a g in
      Alcotest.(check bool) "recompute repaired the entry" true warm.Batch.cached)

let test_bounded_is_cached () =
  with_store (fun store ->
      let g = G.cycle [ "a"; "b"; "b" ] in
      let regime = Spec.Pseudo_stochastic and max_configs = 2 in
      let cold = Batch.decide ~cache:store ~regime ~max_configs exists_a g in
      (match cold.Batch.result with
      | Batch.Bounded n -> Alcotest.(check bool) "bound payload positive" true (n >= 2)
      | Batch.Verdict _ -> Alcotest.fail "budget of 2 should bound out");
      let warm = Batch.decide ~cache:store ~regime ~max_configs exists_a g in
      Alcotest.(check bool) "bounded-out results are cached too" true warm.Batch.cached;
      check_result "same bound" (decision_result cold) (decision_result warm))

(* --- manifests and the runner ---------------------------------------------- *)

let manifest =
  {|{"schema": "dda.batch-manifest/1",
     "jobs": [
       {"protocol": "exists:a", "graph": "cycle:abb"},
       {"protocol": "exists:a", "graph": "cycle:bab", "regime": "f"},
       {"protocol": "threshold:a,2", "graph": "clique:aab", "regime": "F", "max_configs": 5000}
     ]}|}

let test_manifest_parse () =
  match Batch.manifest_of_string ~default_max_configs:777 manifest with
  | Error e -> Alcotest.fail e
  | Ok jobs ->
    Alcotest.(check int) "three jobs" 3 (List.length jobs);
    let j0 = List.nth jobs 0 and j1 = List.nth jobs 1 and j2 = List.nth jobs 2 in
    Alcotest.(check string) "protocol" "exists:a" j0.Batch.protocol;
    Alcotest.(check bool) "regime defaults to F" true
      (j0.Batch.regime = Spec.Pseudo_stochastic);
    Alcotest.(check int) "max_configs defaults" 777 j0.Batch.max_configs;
    Alcotest.(check bool) "explicit regime" true (j1.Batch.regime = Spec.Adversarial);
    Alcotest.(check int) "explicit max_configs" 5000 j2.Batch.max_configs

let test_manifest_rejects () =
  let bad schema = Printf.sprintf {|{"schema": %S, "jobs": []}|} schema in
  Alcotest.(check bool) "wrong schema rejected" true
    (Result.is_error (Batch.manifest_of_string (bad "dda.batch-manifest/9")));
  Alcotest.(check bool) "missing jobs rejected" true
    (Result.is_error (Batch.manifest_of_string {|{"schema": "dda.batch-manifest/1"}|}));
  Alcotest.(check bool) "bad job rejected" true
    (Result.is_error
       (Batch.manifest_of_string
          {|{"schema": "dda.batch-manifest/1", "jobs": [{"graph": "cycle:abb"}]}|}))

let run_jobs =
  match Batch.manifest_of_string ~default_max_configs:10_000 manifest with
  | Ok jobs -> jobs
  | Error e -> failwith e

let count_outcomes report =
  List.fold_left
    (fun (done_, cached, failed) (_, outcome, _) ->
      match outcome with
      | Batch.Done d -> (done_ + 1, (if d.Batch.cached then cached + 1 else cached), failed)
      | Batch.Failed _ -> (done_, cached, failed + 1)
      | Batch.Skipped | Batch.Interrupted -> (done_, cached, failed))
    (0, 0, 0) report.Batch.jobs

let test_run_cold_then_warm () =
  with_store (fun store ->
      Batch.reset_cache_stats ();
      let cold = Batch.run ~cache:store ~shards:2 run_jobs in
      let d, c, f = count_outcomes cold in
      Alcotest.(check int) "all jobs decided" 3 d;
      Alcotest.(check int) "no hits cold" 0 c;
      Alcotest.(check int) "no failures" 0 f;
      Alcotest.(check int) "report misses" 3 cold.Batch.misses;
      let warm = Batch.run ~cache:store ~shards:2 run_jobs in
      let d', c', _ = count_outcomes warm in
      Alcotest.(check int) "all jobs decided warm" 3 d';
      Alcotest.(check int) "all hits warm" 3 c';
      Alcotest.(check int) "report hits" 3 warm.Batch.hits;
      Alcotest.(check int) "no misses warm" 0 warm.Batch.misses;
      (* verdicts byte-identical across the runs *)
      List.iter2
        (fun (_, o1, _) (_, o2, _) ->
          match (o1, o2) with
          | Batch.Done d1, Batch.Done d2 ->
            check_result "cold and warm verdicts agree" (decision_result d1)
              (decision_result d2)
          | _ -> Alcotest.fail "outcome shape changed between runs")
        cold.Batch.jobs warm.Batch.jobs;
      let hits, misses = Batch.cache_stats () in
      Alcotest.(check int) "global hit tally" 3 hits;
      Alcotest.(check int) "global miss tally" 3 misses)

let test_run_reports_failures () =
  let jobs =
    { Batch.protocol = "exists:z"; graph = "cycle:abb"; regime = Spec.Pseudo_stochastic;
      max_configs = 1000 }
    :: run_jobs
  in
  let report = Batch.run jobs in
  (match report.Batch.jobs with
  | (_, Batch.Failed msg, shard) :: _ ->
    Alcotest.(check bool) "failure names the label" true
      (contains "outside the alphabet" msg || contains "unknown" msg);
    Alcotest.(check int) "failed at resolve: no shard" (-1) shard
  | _ -> Alcotest.fail "first job should fail to resolve");
  let json = Batch.report_json report in
  Alcotest.(check bool) "report JSON parses" true
    (Result.is_ok (Dda_telemetry.Json.parse json))

(* a family that never stabilises fails with the bare reason, the same
   text [decide_family] (and so [dda decide] and the server) reports — not
   an exception printer's [Failure("...")] *)
let test_run_family_error_text () =
  let job =
    { Batch.protocol = "slp-mod:2,0"; graph = "clique:ab*"; regime = Spec.Pseudo_stochastic;
      max_configs = 500_000 }
  in
  let expected = "no stabilisation: verdicts of clique:ab* still changing at n = 26" in
  (match (Batch.run [ job ]).Batch.jobs with
  | [ (_, Batch.Failed msg, _) ] -> Alcotest.(check string) "batch error text" expected msg
  | _ -> Alcotest.fail "the family job should fail");
  let fam = Result.get_ok (Dda_symbolic.Family.parse "clique:ab*") in
  let (Spec.Packed m) =
    Result.get_ok (Spec.parse_protocol job.Batch.protocol (Spec.family_representative fam))
  in
  match Batch.decide_family ~regime:job.Batch.regime ~max_configs:job.Batch.max_configs m fam with
  | Error msg -> Alcotest.(check string) "decide_family error text" expected msg
  | Ok _ -> Alcotest.fail "decide_family should fail"

(* a protocol whose constructor refuses its arguments: [dda batch] and
   [dda serve] (through [Batch.resolve]) report the text [dda decide]
   prints (through [Spec.parse_protocol]), with the protocol named once *)
let test_resolve_protocol_error_text () =
  let job =
    { Batch.protocol = "exists:z"; graph = "cycle:abb"; regime = Spec.Pseudo_stochastic;
      max_configs = 1000 }
  in
  let expected = "protocol exists:z: Cutoff_one: label \"z\" outside the alphabet" in
  (match Batch.resolve (Hashtbl.create 1) job with
  | Error msg -> Alcotest.(check string) "resolve error text" expected msg
  | Ok _ -> Alcotest.fail "exists:z on cycle:abb should not resolve");
  match Spec.parse_protocol job.Batch.protocol (Result.get_ok (Spec.parse_graph job.Batch.graph)) with
  | Error msg -> Alcotest.(check string) "parse_protocol error text" expected msg
  | Ok _ -> Alcotest.fail "exists:z on cycle:abb should not parse"

(* An unparseable graph reads the same through [Batch.resolve] (dda batch,
   dda serve) as through [Spec.parse_graph_spec] (dda decide), with one
   [graph: ] prefix — for a concrete spec and for a family spec. *)
let test_resolve_graph_error_text () =
  List.iter
    (fun graph ->
      let job =
        { Batch.protocol = "exists:a"; graph; regime = Spec.Pseudo_stochastic; max_configs = 1000 }
      in
      let expected =
        match Spec.parse_graph_spec graph with
        | Error msg -> msg
        | Ok _ -> Alcotest.failf "%s should not parse" graph
      in
      (match Batch.resolve (Hashtbl.create 1) job with
      | Error msg -> Alcotest.(check string) (graph ^ ": resolve error text") expected msg
      | Ok _ -> Alcotest.failf "%s should not resolve" graph);
      let prefix = "graph: " in
      let pl = String.length prefix in
      let occurrences =
        List.length
          (List.filter
             (fun i -> String.sub expected i pl = prefix)
             (List.init (max 0 (String.length expected - pl + 1)) Fun.id))
      in
      Alcotest.(check bool) (graph ^ ": starts with graph: ") true
        (String.starts_with ~prefix expected);
      Alcotest.(check int) (graph ^ ": graph: exactly once") 1 occurrences)
    [ "foo"; "ab*"; "grid:2x2" ];
  (* a grid without its label field is a grid error, not an unknown topology *)
  Alcotest.(check (result reject string))
    "grid:2x2 names the grid form" (Error "graph: expected grid:WxH:<labels>")
    (Result.map (fun _ -> ()) (Spec.parse_graph_spec "grid:2x2"))

(* --- one tier chain: pinned keys, shared by every front end ----------------- *)

(* Store file names written by [dda decide --cache --max-configs 200000]
   before the front ends shared one plan; a key that moves orphans every
   existing cache.  The batch runner writes the first two; the clique's
   counted-space entry is written under [--reduce]. *)
let pinned_keys =
  [
    ("exists:a", "cycle:abb", Spec.Pseudo_stochastic, "d8555af0525600fbb902d5d0856725b5");
    ("exists:a", "star:ba*", Spec.Pseudo_stochastic, "3d921e4459a2fbe750b4280755d19cbb");
  ]

let pinned_reduced_key =
  ("threshold:a,2", "clique:aab", Spec.Adversarial, "f884c5c0c030f80ebdf120ba0e8a8033")

let job_of (protocol, graph, regime, _) = { Batch.protocol; graph; regime; max_configs = 200_000 }

let test_keys_pinned_across_front_ends () =
  with_store (fun store ->
      let report = Batch.run ~cache:store (List.map job_of pinned_keys) in
      Alcotest.(check int) "batch computed both" 2 report.Batch.misses;
      (* [cached] tells whether the plan's lookup hit; a miss is computed
         and recorded *)
      let decide ?reduce ((protocol, graph, regime, _) as pk) =
        let g = Result.get_ok (Spec.parse_graph graph) in
        let (Spec.Packed m) = Result.get_ok (Spec.parse_protocol protocol g) in
        let p = Batch.plan ~cache:store ?reduce ~regime ~max_configs:(job_of pk).Batch.max_configs m g in
        match Batch.lookup store p with
        | Some _ -> true
        | None ->
          Batch.record store p (Result.get_ok (Batch.compute p));
          false
      in
      Alcotest.(check bool) "clique:aab computed" false (decide ~reduce:true pinned_reduced_key);
      List.iter
        (fun (_, graph, _, key) ->
          Alcotest.(check bool) ("entry stored under the pinned key for " ^ graph) true
            (Store.find store key <> None))
        (pinned_reduced_key :: pinned_keys);
      (* the library and the server answer from those entries *)
      let ((_, cycle, _, _) as pk) = List.hd pinned_keys in
      Alcotest.(check bool) ("Batch.plan hit on " ^ cycle) true (decide pk);
      Alcotest.(check bool) "Batch.plan ~reduce:true hit on clique:aab" true
        (decide ~reduce:true pinned_reduced_key);
      let dir = fresh_root () in
      Unix.mkdir dir 0o700;
      let sock = Filename.concat dir "s.sock" in
      let srv =
        match
          Server.start
            { Server.default_config with addresses = [ Sproto.Unix_socket sock ]; cache = Some store; workers = 1 }
        with
        | Ok srv -> srv
        | Error e -> Alcotest.failf "server: %s" e
      in
      Fun.protect
        ~finally:(fun () ->
          Server.drain srv;
          ignore (Server.wait srv);
          rm_rf dir)
        (fun () ->
          let c = Result.get_ok (Client.connect (Sproto.Unix_socket sock)) in
          List.iter
            (fun ((protocol, graph, regime, _) as pk) ->
              let req =
                Sproto.Decide
                  { Sproto.id = graph; protocol; graph; regime; max_configs = (job_of pk).Batch.max_configs;
                    deadline_ms = None; trace = None }
              in
              match Client.rpc c req with
              | Ok { Sproto.status = Sproto.Verdict v; _ } ->
                Alcotest.(check bool) ("server hit on " ^ graph) true v.cached
              | Ok r -> Alcotest.failf "server: unexpected %s" (Sproto.status_name r.Sproto.status)
              | Error e -> Alcotest.failf "server: %s" e)
            pinned_keys;
          Client.close c);
      Alcotest.(check int) "hits never add entries" 3 (Store.stats store).Store.entries)

(* --- reduce: one quotient per topology -------------------------------------- *)

(* On a clique or a star, [~reduce:true] explores the counted space —
   configurations up to automorphism are multisets of states — and its
   verdicts are the unreduced explicit space's. *)
let prop_reduce_counts_cliques_and_stars =
  QCheck.Test.make ~name:"reduce on cliques and stars = counted space" ~count:100
    QCheck.(triple small_int bool (list_of_size Gen.(int_range 2 5) bool))
    (fun (seed, star, word) ->
      let labels = List.map (fun a -> if a then "a" else "b") word in
      let g =
        if star && List.length labels >= 3 then
          G.star ~centre:(List.hd labels) ~leaves:(List.tl labels)
        else G.clique labels
      in
      let m = Machine.relabel (fun l -> l.[0]) (Helpers.random_machine seed) in
      let max_configs = 100_000 in
      let p = Batch.plan ~reduce:true ~regime:Spec.Adversarial ~max_configs m g in
      let counted = Option.get (Dda_symbolic.Counted.of_graph ~max_configs m g) in
      let explicit = Dda_verify.Space.explore ~max_configs m g in
      let shape = function
        | Ok ({ Batch.result = Batch.Verdict v; _ }, _) -> Helpers.verdict_shape v
        | Ok _ | Error _ -> -1
      in
      p.Batch.engine = "symbolic"
      && p.Batch.group_order = 1
      && (Option.get p.Batch.explore ()).Dda_verify.Space.size = counted.Dda_verify.Space.size
      && List.map shape (p.Batch.solve [ Spec.Adversarial; Spec.Pseudo_stochastic ])
         = List.map Helpers.verdict_shape
             [ Decide.adversarial explicit; Decide.pseudo_stochastic explicit ])

(* The counted space of an 8-clique has 16 configurations, where a group
   quotient would canonicalise every successor against 8! permutations. *)
let test_reduced_clique_eight () =
  let g = Result.get_ok (Spec.parse_graph "clique:aaaaaaab") in
  let (Spec.Packed m) = Result.get_ok (Spec.parse_protocol "exists:a" g) in
  let t0 = Unix.gettimeofday () in
  let p = Batch.plan ~reduce:true ~regime:Spec.Pseudo_stochastic ~max_configs:500_000 m g in
  let d, _ = Result.get_ok (Batch.compute p) in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check string) "engine" "symbolic" p.Batch.engine;
  Alcotest.(check bool) "accepts" true (d.Batch.result = Batch.Verdict Decide.Accepts);
  Alcotest.(check int) "configurations" 16 d.Batch.configs;
  if dt >= 1.0 then Alcotest.failf "clique:aaaaaaab --reduce took %.2f s" dt

(* --- interruption ----------------------------------------------------------- *)

let test_run_interrupted () =
  with_store (fun store ->
      (* trip the flag after the first job: the rest drain as Interrupted,
         the report still carries the completed verdict *)
      let seen = ref 0 in
      let interrupted () =
        incr seen;
        !seen > 1
      in
      let report = Batch.run ~cache:store ~interrupted run_jobs in
      let done_, _, _ = count_outcomes report in
      let interrupted_jobs =
        List.length
          (List.filter (fun (_, o, _) -> o = Batch.Interrupted) report.Batch.jobs)
      in
      Alcotest.(check int) "first job completed" 1 done_;
      Alcotest.(check int) "remaining jobs interrupted" 2 interrupted_jobs;
      let json = Batch.report_json report in
      Alcotest.(check bool) "interrupted status in the report" true
        (contains "\"status\": \"interrupted\"" json);
      Alcotest.(check bool) "report still parses" true
        (Result.is_ok (Dda_telemetry.Json.parse json)))

(* --- regime pairs ------------------------------------------------------------- *)

(* The f and F jobs of one (protocol, graph, budget) differ in regime only:
   the runner explores their configuration space once and classifies it
   under both regimes, and each job still gets what it gets alone. *)
let pair_job ?(max_configs = 200_000) protocol graph regime =
  { Batch.protocol; graph; regime; max_configs }

let regime_pairs =
  List.concat_map
    (fun (protocol, graph) ->
      List.map (pair_job protocol graph) [ Spec.Adversarial; Spec.Pseudo_stochastic ])
    [ ("threshold:a,2", "star:ba*"); ("exists:a", "line:abab") ]
  @ [ pair_job "exists:a" "cycle:abb" Spec.Pseudo_stochastic ]

let decided what = function
  | Batch.Done d -> d
  | Batch.Failed msg -> Alcotest.failf "%s failed: %s" what msg
  | Batch.Skipped | Batch.Interrupted -> Alcotest.failf "%s did not run" what

(* a job's outcome and store entry: verdict and witness text, configs and
   family certificate, under the job's own key *)
let stored store job outcome =
  let what = job.Batch.protocol ^ " " ^ job.Batch.graph ^ " " ^ Spec.regime_name job.Batch.regime in
  let d = decided what outcome in
  let key =
    match Batch.resolve ~cache:store (Hashtbl.create 1) job with
    | Ok p -> p.Batch.key
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  match Store.find store key with
  | Some e -> (what, d.Batch.result, d.Batch.configs, (e.Store.verdict, e.Store.configs, e.Store.family))
  | None -> Alcotest.failf "%s: no entry under its key" what

let alone jobs =
  List.map
    (fun job ->
      with_store (fun store ->
          match (Batch.run ~cache:store [ job ]).Batch.jobs with
          | [ (_, o, _) ] -> stored store job o
          | _ -> Alcotest.fail "one job, one outcome"))
    jobs

let check_as_alone expected store (report : Batch.report) =
  List.iter2
    (fun (what, result, configs, entry) (job, o, _) ->
      let what', result', configs', entry' = stored store job o in
      Alcotest.(check string) "same job" what what';
      check_result (what ^ ": verdict and witness") result result';
      Alcotest.(check int) (what ^ ": configs") configs configs';
      Alcotest.(check bool) (what ^ ": store entry") true (entry = entry'))
    expected report.Batch.jobs

let instances = Dda_telemetry.Telemetry.counter "symbolic.instances"

let test_regime_pairs_share_exploration () =
  let module T = Dda_telemetry.Telemetry in
  if not (T.enabled ()) then T.enable ();
  let expected = alone regime_pairs in
  with_store (fun store ->
      let before = T.value instances in
      let report = Batch.run ~cache:store regime_pairs in
      (* star:ba* is decided on n = 3..8 once, not once per regime *)
      Alcotest.(check int) "family instances explored" 6 (T.value instances - before);
      check_as_alone expected store report);
  with_store (fun store ->
      let report = Batch.run ~cache:store ~shards:2 regime_pairs in
      check_as_alone expected store report;
      let shard i = match List.nth report.Batch.jobs i with _, _, k -> k in
      Alcotest.(check int) "the family pair on one shard" (shard 0) (shard 1);
      Alcotest.(check int) "the line pair on one shard" (shard 2) (shard 3));
  (* over budget, both members of a pair are bounded out where each is
     alone *)
  let tiny =
    List.map
      (fun (max_configs, protocol, graph, regime) -> pair_job ~max_configs protocol graph regime)
      [
        (1_000, "threshold:a,2", "star:ba*", Spec.Adversarial);
        (1_000, "threshold:a,2", "star:ba*", Spec.Pseudo_stochastic);
        (5, "exists:a", "line:abab", Spec.Adversarial);
        (5, "exists:a", "line:abab", Spec.Pseudo_stochastic);
      ]
  in
  let expected = alone tiny in
  List.iter
    (fun (what, result, _, _) ->
      match result with
      | Batch.Bounded _ -> ()
      | Batch.Verdict _ -> Alcotest.failf "%s should be bounded out" what)
    expected;
  with_store (fun store -> check_as_alone expected store (Batch.run ~cache:store tiny))

(* --- advisory locking -------------------------------------------------------- *)

let test_store_lock () =
  with_store (fun store ->
      (* uncontended: both modes acquire and release *)
      (match Store.lock store ~mode:`Shared with
      | Ok l -> Store.unlock l
      | Error e -> Alcotest.failf "shared lock: %s" e);
      (match Store.lock store ~mode:`Exclusive with
      | Ok l -> Store.unlock l
      | Error e -> Alcotest.failf "exclusive lock: %s" e);
      (* POSIX record locks only conflict across processes, so the
         contention paths need a child *)
      let r, w = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
        (* child: hold a shared lock until killed; _exit skips alcotest *)
        Unix.close r;
        let code =
          match Store.lock store ~mode:`Shared with
          | Ok _ ->
            ignore (Unix.write w (Bytes.make 1 'k') 0 1);
            Unix.sleepf 30.;
            0
          | Error _ -> 1
        in
        Unix._exit code
      | pid ->
        Unix.close w;
        let buf = Bytes.create 1 in
        ignore (Unix.read r buf 0 1);
        Unix.close r;
        (match Store.lock store ~mode:`Exclusive with
        | Ok _ -> Alcotest.fail "exclusive acquired while a shared holder is alive"
        | Error msg ->
          Alcotest.(check bool) "contention message names the usage" true
            (contains "in use" msg));
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        (* the crashed holder left a stale file; the next exclusive reaps it *)
        (match Store.lock store ~mode:`Exclusive with
        | Ok l -> Store.unlock l
        | Error e -> Alcotest.failf "stale holder not reaped: %s" e))

(* --- differential: Figure 1 through the cache ------------------------------ *)

let test_figure1_differential () =
  with_store (fun store ->
      let fresh = Dda_core.Figure1.arbitrary_table ~max_nodes:3 () in
      Batch.reset_cache_stats ();
      let cold = Dda_core.Figure1.arbitrary_table ~cache:store ~max_nodes:3 () in
      let _, cold_misses = Batch.cache_stats () in
      Batch.reset_cache_stats ();
      let warm = Dda_core.Figure1.arbitrary_table ~cache:store ~max_nodes:3 () in
      let warm_hits, warm_misses = Batch.cache_stats () in
      Alcotest.(check bool) "cached table equals the fresh table" true (cold = fresh);
      Alcotest.(check bool) "warm table equals too" true (warm = fresh);
      Alcotest.(check bool) "cold run populated the cache" true (cold_misses > 0);
      Alcotest.(check int) "warm run is pure hits" 0 warm_misses;
      Alcotest.(check bool) "warm run did hit" true (warm_hits > 0))

let () =
  Alcotest.run "batch"
    [
      (* first: Unix.fork is illegal once any test has spawned a domain
         (the sharded runner does), so the cross-process lock test leads *)
      ( "lock",
        [ Alcotest.test_case "shared vs exclusive across processes" `Quick test_store_lock ] );
      ( "fingerprint",
        [
          Alcotest.test_case "machine stable" `Quick test_machine_fingerprint_stable;
          Alcotest.test_case "machine distinguishes" `Quick test_machine_fingerprint_distinguishes;
          Alcotest.test_case "graph isomorphism" `Quick test_graph_fingerprint_isomorphism;
          Alcotest.test_case "graph digests pinned" `Quick test_graph_fingerprint_pinned;
          test_graph_fingerprint_brute_force;
          Alcotest.test_case "graph 8 nodes within 1 s" `Quick test_graph_fingerprint_eight_nodes;
          Alcotest.test_case "key sensitivity" `Quick test_key_sensitivity;
        ] );
      ( "store",
        [
          Alcotest.test_case "round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "missing and invalid keys" `Quick test_store_missing_and_invalid;
          Alcotest.test_case "corrupt entries" `Quick test_store_corrupt_entry;
          Alcotest.test_case "stale salt" `Quick test_store_stale_salt;
        ] );
      ( "lru",
        [
          Alcotest.test_case "capacity and eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "sharding bound" `Quick test_lru_sharding_bound;
          Alcotest.test_case "negative TTL" `Quick test_lru_negative_ttl;
          Alcotest.test_case "negative TTL on the monotonic clock" `Quick
            test_lru_negative_monotonic_clock;
          Alcotest.test_case "concurrent readers during eviction" `Quick
            test_lru_concurrent_readers;
        ] );
      ( "memo",
        [
          Alcotest.test_case "warm hit served from RAM" `Quick test_memo_serves_from_ram;
          Alcotest.test_case "negative entries" `Quick test_memo_negative_entries;
          Alcotest.test_case "gc flushes the memo" `Quick test_memo_gc_flushes;
          Alcotest.test_case "lock acquisition flushes the memo" `Quick
            test_memo_lock_flushes;
        ] );
      ( "decide",
        [
          Alcotest.test_case "cached matches fresh" `Quick test_cached_decide_matches_fresh;
          Alcotest.test_case "recovers from corruption" `Quick
            test_cached_decide_recovers_from_corruption;
          Alcotest.test_case "bounded results cached" `Quick test_bounded_is_cached;
        ] );
      ( "runner",
        [
          Alcotest.test_case "manifest parse" `Quick test_manifest_parse;
          Alcotest.test_case "manifest rejects" `Quick test_manifest_rejects;
          Alcotest.test_case "cold then warm" `Quick test_run_cold_then_warm;
          Alcotest.test_case "reports failures" `Quick test_run_reports_failures;
          Alcotest.test_case "interrupt drains cleanly" `Quick test_run_interrupted;
          Alcotest.test_case "family error text" `Quick test_run_family_error_text;
          Alcotest.test_case "protocol error text" `Quick test_resolve_protocol_error_text;
          Alcotest.test_case "graph error text" `Quick test_resolve_graph_error_text;
        ] );
      ( "keys",
        [
          Alcotest.test_case "pinned across front ends" `Quick
            test_keys_pinned_across_front_ends;
        ] );
      ( "reduce",
        [
          QCheck_alcotest.to_alcotest prop_reduce_counts_cliques_and_stars;
          Alcotest.test_case "clique:aaaaaaab within 1 s" `Quick test_reduced_clique_eight;
        ] );
      ( "differential",
        [ Alcotest.test_case "figure 1 through the cache" `Slow test_figure1_differential ] );
      (* last: it switches telemetry on for the rest of the process *)
      ( "regime pairs",
        [
          Alcotest.test_case "regime pairs share one exploration" `Quick
            test_regime_pairs_share_exploration;
        ] );
    ]

module Machine = Dda_machine.Machine
module Tabulate = Dda_machine.Tabulate
module Graph = Dda_graph.Graph

let version_salt = "dda-engine/3"

let hex s = Digest.to_hex (Digest.string s)

let nominal m labels =
  "nom:"
  ^ hex
      (Printf.sprintf "%s;%d;%s" m.Machine.name m.Machine.beta
         (String.concat "," (List.map String.escaped labels)))

let machine ~labels m =
  (* a machine probed outside its own alphabet (or whose δ otherwise
     rejects the enumeration) must not crash the cache layer: fall back to
     the nominal fingerprint, which does include the label set *)
  match Tabulate.reachable_states ~labels m with
  | None -> nominal m labels
  | Some states -> (
    match Tabulate.tabulate ~labels ~states m with
    | t -> "tab:" ^ hex (Tabulate.canonical_dump ~label_key:Fun.id t)
    | exception Invalid_argument _ -> nominal m labels)
  | exception Invalid_argument _ -> nominal m labels

(* The graph renamed by [p] (new node [i] is old node [p.(i)]): node labels
   in order, then the upper-triangular adjacency bitmap. *)
let serialise_under g p =
  let n = Graph.nodes g in
  let buf = Buffer.create 64 in
  for i = 0 to n - 1 do
    Buffer.add_string buf (String.escaped (Graph.label g p.(i)));
    Buffer.add_char buf ','
  done;
  Buffer.add_char buf ';';
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Buffer.add_char buf (if Graph.adjacent g p.(i) p.(j) then '1' else '0')
    done
  done;
  Buffer.contents buf

(* The least [serialise_under g p] over all permutations [p], by
   depth-first placement of one node per position.  Every candidate has the
   same length (same label multiset, same bitmap size), so string order is
   plain lexicographic order and a prefix already larger than the best
   candidate's is pruned exactly.  The labels come first, so each placement
   extends the prefix; once all nodes are placed the bitmap is compared
   byte by byte and abandoned at the first larger byte. *)
let canonical g =
  let n = Graph.nodes g in
  let lbl = Array.init n (fun v -> String.escaped (Graph.label g v) ^ ",") in
  let best = Bytes.of_string (serialise_under g (Array.init n Fun.id)) in
  let len = Bytes.length best in
  let cur = Bytes.create len in
  let p = Array.make n 0 and used = Array.make n false in
  (* write [ch] at [pos], where [cmp] orders cur.[0 .. pos-1] against best *)
  let put pos cmp ch =
    Bytes.set cur pos ch;
    if cmp <> 0 then cmp else Char.compare ch (Bytes.get best pos)
  in
  (* place nodes [k..] behind a prefix of length [pos]; true iff best
     improved, after which the prefix equals best's *)
  let rec place k pos cmp =
    if k = n then begin
      let cmp = ref (put pos cmp ';') and pos = ref (pos + 1) in
      let i = ref 0 and j = ref 1 in
      while !cmp <= 0 && !pos < len do
        cmp := put !pos !cmp (if Graph.adjacent g p.(!i) p.(!j) then '1' else '0');
        incr pos;
        incr j;
        if !j = n then begin
          incr i;
          j := !i + 1
        end
      done;
      !cmp < 0 && (Bytes.blit cur 0 best 0 len; true)
    end
    else begin
      let cmp = ref cmp and improved = ref false in
      for v = 0 to n - 1 do
        if not used.(v) then begin
          let c = ref !cmp in
          String.iteri (fun x ch -> c := put (pos + x) !c ch) lbl.(v);
          if !c <= 0 then begin
            used.(v) <- true;
            p.(k) <- v;
            if place (k + 1) (pos + String.length lbl.(v)) !c then begin
              improved := true;
              cmp := 0
            end;
            used.(v) <- false
          end
        end
      done;
      !improved
    end
  in
  ignore (place 0 0 0);
  Bytes.to_string best

let graph g =
  let n = Graph.nodes g in
  if n <= 8 then "can:" ^ hex (Printf.sprintf "%d#%s" n (canonical g))
  else "raw:" ^ hex (Printf.sprintf "%d#%s" n (serialise_under g (Array.init n Fun.id)))

let family f = "fam:" ^ hex (Dda_symbolic.Family.to_string f)

let key ?(engine = "explicit") ~machine ~graph ~regime ~max_configs () =
  (* explicit keys keep the historical salt bytes so pre-engine entries
     stay valid; any other engine is salted apart and can never alias *)
  let salt =
    if engine = "explicit" then version_salt else version_salt ^ "+" ^ engine
  in
  hex
    (String.concat "\x00"
       [ salt; machine; graph; regime; string_of_int max_configs ])

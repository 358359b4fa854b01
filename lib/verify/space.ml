module Graph = Dda_graph.Graph
module Machine = Dda_machine.Machine
module Config = Dda_runtime.Config
module Listx = Dda_util.Listx
module T = Dda_telemetry.Telemetry

type kind = Explicit | Counted | Opaque

type t = {
  kind : kind;
  node_count : int;
  size : int;
  initial : int;
  degree : int -> int;
  target : int -> int -> int;
  label : int -> int -> int;
  accepting : int -> bool;
  rejecting : int -> bool;
  describe : int -> string;
  engine : Engine.t option;
}

exception Too_large of int

let engine space = space.engine
let is_reduced space = match space.engine with Some e -> Engine.reduced e | None -> false

(* The edge view of a CSR: the edges of [i] are [off.(i) .. off.(i + 1) - 1]. *)
let csr off dst lbl =
  ((fun i -> off.(i + 1) - off.(i)), (fun i k -> dst.(off.(i) + k)), fun i k -> lbl.(off.(i) + k))

(* Worklist exploration over an abstract configuration type ['c]: [expand c]
   lists (label, successor) pairs.  Configurations are numbered in BFS
   order, so the [i]-th one popped is configuration [i] and its edges are
   [off.(i) .. off.(i + 1) - 1] of the [dst]/[lbl] arrays. *)
let explore_custom ~max_configs ~node_count ~initial ~expand ~accepting ~rejecting ~describe =
  let index = Hashtbl.create 1024 in
  let configs = ref [] (* reversed *) in
  let count = ref 0 in
  let intern c =
    match Hashtbl.find_opt index c with
    | Some i -> i
    | None ->
      if !count >= max_configs then raise (Too_large !count);
      let i = !count in
      Hashtbl.add index c i;
      configs := c :: !configs;
      incr count;
      i
  in
  let i0 = intern initial in
  let queue = Queue.create () in
  Queue.add initial queue;
  let offs = ref [ 0 ] (* reversed *) in
  let dst = ref (Array.make 1024 0) and lbl = ref (Array.make 1024 0) in
  let ne = ref 0 in
  while not (Queue.is_empty queue) do
    List.iter
      (fun (label, c') ->
        let fresh = !count (* the index a new configuration gets *) in
        let j = intern c' in
        if j = fresh then Queue.add c' queue;
        if !ne = Array.length !dst then begin
          dst := Array.append !dst !dst;
          lbl := Array.append !lbl !lbl
        end;
        !dst.(!ne) <- j;
        !lbl.(!ne) <- label;
        incr ne)
      (expand (Queue.pop queue));
    offs := !ne :: !offs
  done;
  let configs = Array.of_list (List.rev !configs) in
  let degree, target, label = csr (Array.of_list (List.rev !offs)) !dst !lbl in
  {
    kind = Opaque;
    node_count;
    size = Array.length configs;
    initial = i0;
    degree;
    target;
    label;
    accepting = (fun i -> accepting configs.(i));
    rejecting = (fun i -> rejecting configs.(i));
    describe = (fun i -> describe configs.(i));
    engine = None;
  }

let of_engine e =
  let n = e.Engine.node_count in
  let kind, degree, target, label =
    match e.Engine.edges with
    | Engine.Csr_edges { off; targets; labels } ->
      let degree, target, label = csr off targets labels in
      (Counted, degree, target, label)
    | Engine.Flat_edges _ | Engine.Ext_edges _ ->
      (Explicit, (fun _ -> n), (fun i k -> Engine.target e i k), fun _ k -> k)
  in
  let accepting i = Engine.acc e i and rejecting i = Engine.rej e i in
  let size = e.Engine.size and initial = e.Engine.initial and describe = e.Engine.describe in
  { kind; node_count = n; size; initial; degree; target; label; accepting; rejecting; describe; engine = Some e }

let explore ?(jobs = 1) ?symmetry ?states ?mem_budget ~max_configs m g =
  if jobs <> 1 then invalid_arg "Space.explore: exploration is sequential (jobs must be 1)";
  let e =
    try
      T.with_span
        ~args:[ ("nodes", T.I (Graph.nodes g)); ("max_configs", T.I max_configs) ]
        "explore"
        (fun () -> Engine.explore ?symmetry ?states ?mem_budget ~max_configs m g)
    with Engine.Too_large n -> raise (Too_large n)
  in
  of_engine e

let explore_liberal ~max_configs m g =
  let n = Graph.nodes g in
  if n > 16 then invalid_arg "Space.explore_liberal: exponential branching, 16 nodes max";
  (* every non-empty subset of nodes, as a bitmask; the mask doubles as the
     edge label so schedules are replayable *)
  let moves =
    List.init ((1 lsl n) - 1) (fun k ->
        let mask = k + 1 in
        (mask, List.filter (fun v -> mask land (1 lsl v) <> 0) (Listx.range n)))
  in
  let expand c =
    List.map (fun (mask, sel) -> (mask, Config.to_array (Config.step m g (Config.of_states c) sel))) moves
  in
  explore_custom ~max_configs ~node_count:n
    ~initial:(Config.to_array (Config.initial m g))
    ~expand
    ~accepting:(Array.for_all m.Machine.accepting)
    ~rejecting:(Array.for_all m.Machine.rejecting)
    ~describe:(fun c -> Format.asprintf "%a" (Config.pp m.Machine.pp_state) (Config.of_states c))

(* Escape a node label for dot: backslash-escape quotes and backslashes. *)
let dot_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      (match ch with '"' | '\\' -> Buffer.add_char b '\\' | _ -> ());
      Buffer.add_char b ch)
    s;
  Buffer.contents b

let to_dot ?(max_size = 200) fmt space =
  if space.size > max_size then
    invalid_arg "Space.to_dot: configuration graph too large to render";
  Format.fprintf fmt "@[<v>digraph space {@,  rankdir=LR;@,";
  for i = 0 to space.size - 1 do
    let shape =
      if space.accepting i then "doublecircle" else if space.rejecting i then "box" else "ellipse"
    in
    Format.fprintf fmt "  c%d [shape=%s,label=\"%s\"%s];@," i shape
      (dot_escape (space.describe i))
      (if i = space.initial then ",style=bold" else "")
  done;
  for i = 0 to space.size - 1 do
    for k = 0 to space.degree i - 1 do
      let j = space.target i k in
      if i <> j || space.kind = Explicit then
        Format.fprintf fmt "  c%d -> c%d%s;@," i j
          (if space.kind = Explicit then Printf.sprintf " [label=\"%d\"]" (space.label i k)
           else "")
    done
  done;
  Format.fprintf fmt "}@]"

let shortest_path ?from ?(within = fun _ -> true) space ~goal =
  let source = Option.value from ~default:space.initial in
  let parent = Array.make space.size None in
  let seen = Array.make space.size false in
  let queue = Queue.create () in
  seen.(source) <- true;
  Queue.add source queue;
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    if goal i then found := Some i
    else
      for k = 0 to space.degree i - 1 do
        let j = space.target i k in
        if (not seen.(j)) && within j then begin
          seen.(j) <- true;
          parent.(j) <- Some (i, space.label i k);
          Queue.add j queue
        end
      done
  done;
  match !found with
  | None -> None
  | Some target ->
    let rec unwind i acc =
      match parent.(i) with None -> acc | Some (p, label) -> unwind p (label :: acc)
    in
    Some (unwind target [], target)

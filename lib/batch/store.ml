module Json = Dda_telemetry.Json
module T = Dda_telemetry.Telemetry
module Decide = Dda_verify.Decide

let c_mem_hit = T.counter "cache.mem_hit"
let c_mem_evict = T.counter "cache.mem_evict"

type verdict =
  | Verdict of Decide.verdict
  | Bounded of int

type family_cert = { from_n : int; checked_to : int; cutoff : int option }

type entry = {
  key : string;
  machine : string;
  graph : string;
  regime : string;
  max_configs : int;
  verdict : verdict;
  configs : int;
  seconds : float;
  engine : string;
  family : family_cert option;
}

type t = {
  root : string;
  memo : entry Lru.t option;  (* in-memory tier; [None] = disk only *)
}

let schema = "dda.cache/1"

let default_root () =
  match Sys.getenv_opt "DDA_CACHE" with
  | Some r when r <> "" -> r
  | _ -> "_dda_cache"

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let open_ ?root ?memo ?(memo_shards = 8) ?(negative_ttl = 1.0) () =
  let root = match root with Some r -> r | None -> default_root () in
  mkdir_p root;
  let memo =
    match memo with
    | Some capacity when capacity > 0 ->
      Some (Lru.create ~shards:memo_shards ~negative_ttl ~capacity ())
    | _ -> None
  in
  { root; memo }

let root t = t.root

let flush_memo t = match t.memo with Some l -> Lru.flush l | None -> ()
let memo_stats t = Option.map Lru.stats t.memo

let valid_key k =
  k <> ""
  && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) k

let path_of t key = Filename.concat (Filename.concat t.root (String.sub key 0 2)) (key ^ ".json")

(* --- Serialisation ---------------------------------------------------------- *)

let entry_json e =
  let b = Buffer.create 256 in
  let str k v = Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" k (Json.escape v)) in
  Buffer.add_char b '{';
  str "schema" schema;
  Buffer.add_char b ',';
  str "salt" Fingerprint.version_salt;
  Buffer.add_char b ',';
  str "key" e.key;
  Buffer.add_char b ',';
  str "machine" e.machine;
  Buffer.add_char b ',';
  str "graph" e.graph;
  Buffer.add_char b ',';
  str "regime" e.regime;
  Buffer.add_string b (Printf.sprintf ",\"max_configs\":%d" e.max_configs);
  Buffer.add_string b ",\"verdict\":{";
  (match e.verdict with
  | Verdict Decide.Accepts -> str "kind" "accepts"
  | Verdict Decide.Rejects -> str "kind" "rejects"
  | Verdict (Decide.Inconsistent w) ->
    str "kind" "inconsistent";
    Buffer.add_char b ',';
    str "witness" w
  | Bounded n ->
    str "kind" "bounded";
    Buffer.add_string b (Printf.sprintf ",\"bound\":%d" n));
  Buffer.add_char b '}';
  Buffer.add_string b (Printf.sprintf ",\"configs\":%d" e.configs);
  Buffer.add_string b (Printf.sprintf ",\"seconds\":%.6f" e.seconds);
  if e.engine <> "explicit" then begin
    Buffer.add_char b ',';
    str "engine" e.engine
  end;
  (match e.family with
  | None -> ()
  | Some fc ->
    Buffer.add_string b
      (Printf.sprintf ",\"family\":{\"from_n\":%d,\"checked_to\":%d,\"cutoff\":%s}"
         fc.from_n fc.checked_to
         (match fc.cutoff with Some k -> string_of_int k | None -> "null")));
  Buffer.add_string b "}\n";
  Buffer.contents b

(* Strict decode; any shape violation yields [Error] so the caller treats
   the file as a miss. *)
let entry_of_json doc =
  let ( let* ) = Result.bind in
  let str field d =
    match Json.member field d with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "missing string %S" field)
  in
  let int field d =
    match Json.member field d with
    | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
    | _ -> Error (Printf.sprintf "missing integer %S" field)
  in
  let* sc = str "schema" doc in
  let* () = if sc = schema then Ok () else Error "unknown schema" in
  let* salt = str "salt" doc in
  let* () =
    if salt = Fingerprint.version_salt then Ok () else Error "stale engine salt"
  in
  let* key = str "key" doc in
  let* machine = str "machine" doc in
  let* graph = str "graph" doc in
  let* regime = str "regime" doc in
  let* max_configs = int "max_configs" doc in
  let* vdoc =
    match Json.member "verdict" doc with
    | Some (Json.Obj _ as v) -> Ok v
    | _ -> Error "missing object \"verdict\""
  in
  let* verdict =
    let* kind = str "kind" vdoc in
    match kind with
    | "accepts" -> Ok (Verdict Decide.Accepts)
    | "rejects" -> Ok (Verdict Decide.Rejects)
    | "inconsistent" ->
      let* w = str "witness" vdoc in
      Ok (Verdict (Decide.Inconsistent w))
    | "bounded" ->
      let* n = int "bound" vdoc in
      Ok (Bounded n)
    | other -> Error (Printf.sprintf "unknown verdict kind %S" other)
  in
  let* configs = int "configs" doc in
  let* seconds =
    match Json.member "seconds" doc with
    | Some (Json.Num f) when Float.is_finite f -> Ok f
    | _ -> Error "missing number \"seconds\""
  in
  (* the engine field postdates the schema: absent means explicit (every
     pre-engine entry was computed by the explicit engine) *)
  let* engine =
    match Json.member "engine" doc with
    | None -> Ok "explicit"
    | Some (Json.Str s) -> Ok s
    | Some _ -> Error "malformed \"engine\""
  in
  let* family =
    match Json.member "family" doc with
    | None -> Ok None
    | Some (Json.Obj _ as f) ->
      let* from_n = int "from_n" f in
      let* checked_to = int "checked_to" f in
      let* cutoff =
        match Json.member "cutoff" f with
        | Some Json.Null | None -> Ok None
        | Some (Json.Num v) when Float.is_integer v -> Ok (Some (int_of_float v))
        | Some _ -> Error "malformed \"cutoff\""
      in
      Ok (Some { from_n; checked_to; cutoff })
    | Some _ -> Error "malformed \"family\""
  in
  Ok
    {
      key;
      machine;
      graph;
      regime;
      max_configs;
      verdict;
      configs;
      seconds;
      engine;
      family;
    }

let read_entry path =
  match Json.parse_file path with
  | Error e -> Error e
  | Ok doc -> entry_of_json doc

let disk_find t key =
  let path = path_of t key in
  if not (Sys.file_exists path) then None
  else
    match read_entry path with
    | Ok e when e.key = key -> Some e
    | Ok _ -> None (* entry aliased under the wrong file name *)
    | Error _ -> None

(* Memo-first: a warm hit is served from RAM as the already-decoded record
   — no disk read, no JSON parse.  On a disk hit the decoded record is
   promoted into the memo so only the first hit per process pays the
   decode; on a disk miss a negative entry suppresses repeat stat+open
   calls for the TTL. *)
let find_tier t key =
  if not (valid_key key) || String.length key < 2 then None
  else
    match t.memo with
    | None -> Option.map (fun e -> (e, `Disk)) (disk_find t key)
    | Some l -> (
      match Lru.find l key with
      | `Hit e ->
        T.incr c_mem_hit;
        Some (e, `Mem)
      | `Negative -> None
      | `Miss -> (
        match disk_find t key with
        | Some e ->
          if Lru.put l key e > 0 then T.incr c_mem_evict;
          Some (e, `Disk)
        | None ->
          Lru.note_absent l key;
          None))

let find t key = Option.map fst (find_tier t key)

let put t e =
  if valid_key e.key && String.length e.key >= 2 then begin
    (match t.memo with
    | Some l -> if Lru.put l e.key e > 0 then T.incr c_mem_evict
    | None -> ());
    let path = path_of t e.key in
    try
      mkdir_p (Filename.dirname path);
      let tmp =
        Filename.concat t.root
          (Printf.sprintf ".tmp.%d.%s" (Unix.getpid ()) e.key)
      in
      Out_channel.with_open_bin tmp (fun oc -> output_string oc (entry_json e));
      Sys.rename tmp path
    with Sys_error _ | Unix.Unix_error _ -> ()
  end

(* --- Advisory locking -------------------------------------------------------- *)

(* Gate file: <root>/.lock, held (lockf on byte 0) for the whole lifetime of
   an exclusive lock, and only momentarily while a shared holder registers
   itself.  Shared holders keep a lockf on their own file under
   <root>/.holders/, so liveness is testable with F_TEST: a holder file whose
   lock cannot be taken belongs to a live process, one whose lock is free is
   stale debris from a crash.  POSIX record locks do not conflict within one
   process, which is fine for an advisory cross-process guard. *)

type lock = {
  l_fd : Unix.file_descr;
  l_holder : string option;  (* holder file to unlink on release (shared) *)
  mutable l_released : bool;
}

let gate_path t = Filename.concat t.root ".lock"
let holders_dir t = Filename.concat t.root ".holders"

let holder_seq = ref 0

let open_locked path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  match Unix.lockf fd Unix.F_TLOCK 0 with
  | () -> Ok fd
  | exception Unix.Unix_error _ ->
    Unix.close fd;
    Error ()

let holder_alive path =
  match Unix.openfile path [ Unix.O_RDWR ] 0o644 with
  | exception Unix.Unix_error _ -> false (* unreadable = not provably alive *)
  | fd ->
    let alive =
      match Unix.lockf fd Unix.F_TEST 0 with
      | () -> false (* lockable, so nobody holds it *)
      | exception Unix.Unix_error _ -> true
    in
    Unix.close fd;
    alive

let lock t ~mode =
  mkdir_p (holders_dir t);
  match mode with
  | `Exclusive -> (
    match open_locked (gate_path t) with
    | Error () ->
      Error
        (Printf.sprintf "cache %s is locked by another maintenance process" t.root)
    | Ok fd ->
      let holders =
        Array.to_list (try Sys.readdir (holders_dir t) with Sys_error _ -> [||])
        |> List.map (Filename.concat (holders_dir t))
      in
      let live, stale = List.partition holder_alive holders in
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) stale;
      if live = [] then Ok { l_fd = fd; l_holder = None; l_released = false }
      else begin
        (try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
        Unix.close fd;
        Error
          (Printf.sprintf
             "cache %s is in use by %d running process(es) (a server or batch run); retry when they finish"
             t.root (List.length live))
      end)
  | `Shared -> (
    (* take the gate momentarily: proves no exclusive holder, and no new
       exclusive holder can complete its holder scan while we register *)
    match open_locked (gate_path t) with
    | Error () ->
      Error (Printf.sprintf "cache %s is locked for maintenance (gc in progress)" t.root)
    | Ok gate ->
      incr holder_seq;
      let holder =
        Filename.concat (holders_dir t)
          (Printf.sprintf "%d.%d.lock" (Unix.getpid ()) !holder_seq)
      in
      let result =
        match open_locked holder with
        | Ok fd -> Ok { l_fd = fd; l_holder = Some holder; l_released = false }
        | Error () -> Error (Printf.sprintf "cannot register cache holder %s" holder)
      in
      (try Unix.lockf gate Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
      Unix.close gate;
      result)

(* Entering a new lock session: another process may have run [gc] while we
   held no lock, so the in-memory tier starts cold. *)
let lock t ~mode =
  match lock t ~mode with
  | Ok l ->
    flush_memo t;
    Ok l
  | Error _ as e -> e

let unlock l =
  if not l.l_released then begin
    l.l_released <- true;
    (try Unix.lockf l.l_fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ());
    (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
    match l.l_holder with
    | Some p -> ( try Sys.remove p with Sys_error _ -> ())
    | None -> ()
  end

(* --- Maintenance ------------------------------------------------------------ *)

type stats = { entries : int; corrupt : int; stale : int; bytes : int }

let entry_files t =
  if not (Sys.file_exists t.root && Sys.is_directory t.root) then []
  else
    Array.to_list (Sys.readdir t.root)
    |> List.filter (fun d ->
           String.length d = 2 && Sys.is_directory (Filename.concat t.root d))
    |> List.concat_map (fun d ->
           Array.to_list (Sys.readdir (Filename.concat t.root d))
           |> List.filter (fun f -> Filename.check_suffix f ".json")
           |> List.map (fun f -> Filename.concat d f))

let classify t rel =
  let path = Filename.concat t.root rel in
  match read_entry path with
  | Ok e ->
    if Filename.basename path = e.key ^ ".json" then Ok ()
    else Error (`Corrupt, "key does not match file name")
  | Error msg ->
    if msg = "stale engine salt" then Error (`Stale, msg) else Error (`Corrupt, msg)

let stats t =
  List.fold_left
    (fun acc rel ->
      let bytes =
        acc.bytes
        + (try (Unix.stat (Filename.concat t.root rel)).Unix.st_size with Unix.Unix_error _ -> 0)
      in
      match classify t rel with
      | Ok () -> { acc with entries = acc.entries + 1; bytes }
      | Error (`Stale, _) -> { acc with stale = acc.stale + 1; bytes }
      | Error (`Corrupt, _) -> { acc with corrupt = acc.corrupt + 1; bytes })
    { entries = 0; corrupt = 0; stale = 0; bytes = 0 }
    (entry_files t)

let verify t =
  List.filter_map
    (fun rel ->
      match classify t rel with
      | Ok () -> None
      | Error (_, reason) -> Some (rel, reason))
    (entry_files t)

let gc t =
  let removed =
    List.fold_left
      (fun removed rel ->
        match classify t rel with
        | Ok () -> removed
        | Error _ -> (
          try
            Sys.remove (Filename.concat t.root rel);
            removed + 1
          with Sys_error _ -> removed))
      0 (entry_files t)
  in
  (* deleted keys must not survive in RAM *)
  flush_memo t;
  removed

module Json = Dda_telemetry.Json
module Spec = Dda_batch.Spec

let schema = "dda.service/1"

type decide = {
  id : string;
  protocol : string;
  graph : string;
  regime : Spec.regime;
  max_configs : int;
  deadline_ms : int option;
  trace : string option;
}

type request =
  | Decide of decide
  | Ping of string
  | Stats of string
  | Health of string

type status =
  | Verdict of { verdict : string; cached : bool; configs : int; seconds : float }
  | Bounded of { reason : string; configs : int }
  | Rejected of string
  | Error of string
  | Pong
  | Stats_doc of string
  | Health_state of string

type response = {
  rid : string;
  status : status;
  queue_ms : float;
  total_ms : float;
}

type parse_error = {
  err_id : string;
  err_reason : string;
}

(* --- Emission ---------------------------------------------------------------- *)

let add_field b k v =
  Buffer.add_string b (Printf.sprintf ",\"%s\":%s" k v)

let add_str b k v = add_field b k (Printf.sprintf "\"%s\"" (Json.escape v))

let envelope id =
  let b = Buffer.create 160 in
  Buffer.add_string b (Printf.sprintf "{\"schema\":\"%s\"" schema);
  add_str b "id" id;
  b

let simple_request op id =
  let b = envelope id in
  add_str b "op" op;
  Buffer.add_char b '}';
  Buffer.contents b

let request_to_json = function
  | Ping id -> simple_request "ping" id
  | Stats id -> simple_request "stats" id
  | Health id -> simple_request "health" id
  | Decide d ->
    let b = envelope d.id in
    add_str b "op" "decide";
    add_str b "protocol" d.protocol;
    add_str b "graph" d.graph;
    add_str b "regime" (Spec.regime_name d.regime);
    add_field b "max_configs" (string_of_int d.max_configs);
    (match d.deadline_ms with
    | Some ms -> add_field b "deadline_ms" (string_of_int ms)
    | None -> ());
    (match d.trace with Some t -> add_str b "trace" t | None -> ());
    Buffer.add_char b '}';
    Buffer.contents b

let response_to_json r =
  let b = envelope r.rid in
  (match r.status with
  | Verdict v ->
    add_str b "status" "ok";
    add_str b "verdict" v.verdict;
    add_field b "cached" (if v.cached then "true" else "false");
    add_field b "configs" (string_of_int v.configs);
    add_field b "seconds" (Printf.sprintf "%.6f" v.seconds)
  | Bounded bd ->
    add_str b "status" "bounded";
    add_str b "reason" bd.reason;
    add_field b "configs" (string_of_int bd.configs)
  | Rejected reason ->
    add_str b "status" "rejected";
    add_str b "reason" reason
  | Error reason ->
    add_str b "status" "error";
    add_str b "reason" reason
  | Pong -> add_str b "status" "pong"
  | Stats_doc doc ->
    add_str b "status" "stats";
    (* [doc] is a complete compact JSON object (dda.stats/1), embedded
       verbatim — the builder guarantees it is single-line strict JSON *)
    add_field b "stats" doc
  | Health_state s ->
    add_str b "status" "health";
    add_str b "state" s);
  (match r.status with
  | Rejected _ | Error _ | Pong | Stats_doc _ | Health_state _ -> ()
  | _ ->
    add_field b "queue_ms" (Printf.sprintf "%.3f" r.queue_ms);
    add_field b "total_ms" (Printf.sprintf "%.3f" r.total_ms));
  Buffer.add_char b '}';
  Buffer.contents b

let status_name = function
  | Verdict _ -> "ok"
  | Bounded _ -> "bounded"
  | Rejected _ -> "rejected"
  | Error _ -> "error"
  | Pong -> "pong"
  | Stats_doc _ -> "stats"
  | Health_state _ -> "health"

(* --- Parsing ----------------------------------------------------------------- *)

let str_member field doc =
  match Json.member field doc with Some (Json.Str s) -> Some s | _ -> None

let int_member field doc =
  match Json.member field doc with
  | Some (Json.Num f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let float_member field doc =
  match Json.member field doc with Some (Json.Num f) -> Some f | _ -> None

(* Check the envelope: strict JSON object carrying our schema.  The id is
   recovered on a best-effort basis so even malformed requests can be
   answered to the right caller. *)
let parse_envelope line =
  match Json.parse line with
  | Error e -> Result.Error { err_id = ""; err_reason = "malformed JSON: " ^ e }
  | Ok doc ->
    let id = Option.value ~default:"" (str_member "id" doc) in
    (match str_member "schema" doc with
    | Some s when s = schema -> Ok (id, doc)
    | Some s ->
      Result.Error
        { err_id = id; err_reason = Printf.sprintf "unsupported schema %S (this server speaks %s)" s schema }
    | None ->
      Result.Error
        { err_id = id; err_reason = Printf.sprintf "missing \"schema\" (expected %S)" schema })

let parse_request ?(default_max_configs = 200_000) line =
  match parse_envelope line with
  | Result.Error e -> Result.Error e
  | Ok (id, doc) -> (
    let fail reason = Result.Error { err_id = id; err_reason = reason } in
    match str_member "op" doc with
    | Some "ping" -> Ok (Ping id)
    | Some "stats" -> Ok (Stats id)
    | Some "health" -> Ok (Health id)
    | Some "decide" -> (
      match (str_member "protocol" doc, str_member "graph" doc) with
      | None, _ -> fail "decide: missing string \"protocol\""
      | _, None -> fail "decide: missing string \"graph\""
      | Some protocol, Some graph -> (
        let regime =
          match str_member "regime" doc with
          | None -> Ok Spec.Pseudo_stochastic
          | Some s -> Spec.parse_regime s
        in
        match regime with
        | Result.Error e -> fail e
        | Ok regime -> (
          let max_configs =
            match Json.member "max_configs" doc with
            | None -> Ok default_max_configs
            | Some (Json.Num f) when Float.is_integer f && f >= 1. -> Ok (int_of_float f)
            | Some _ -> Result.Error "\"max_configs\" is not a positive integer"
          in
          let deadline_ms =
            match Json.member "deadline_ms" doc with
            | None -> Ok None
            | Some (Json.Num f) when Float.is_integer f && f >= 0. -> Ok (Some (int_of_float f))
            | Some _ -> Result.Error "\"deadline_ms\" is not a non-negative integer"
          in
          let trace = str_member "trace" doc in
          match (max_configs, deadline_ms) with
          | Result.Error e, _ | _, Result.Error e -> fail e
          | Ok max_configs, Ok deadline_ms ->
            Ok (Decide { id; protocol; graph; regime; max_configs; deadline_ms; trace }))))
    | Some op -> fail (Printf.sprintf "unknown op %S (decide | ping | stats | health)" op)
    | None -> fail "missing string \"op\"")

let parse_response line =
  match parse_envelope line with
  | Result.Error e -> Result.Error e.err_reason
  | Ok (rid, doc) -> (
    let queue_ms = Option.value ~default:0. (float_member "queue_ms" doc) in
    let total_ms = Option.value ~default:0. (float_member "total_ms" doc) in
    let reason () = Option.value ~default:"" (str_member "reason" doc) in
    match str_member "status" doc with
    | Some "ok" -> (
      match (str_member "verdict" doc, int_member "configs" doc) with
      | Some verdict, Some configs ->
        let cached =
          match Json.member "cached" doc with Some (Json.Bool b) -> b | _ -> false
        in
        let seconds = Option.value ~default:0. (float_member "seconds" doc) in
        Ok { rid; status = Verdict { verdict; cached; configs; seconds }; queue_ms; total_ms }
      | _ -> Result.Error "ok response: missing \"verdict\" or \"configs\"")
    | Some "bounded" ->
      let configs = Option.value ~default:0 (int_member "configs" doc) in
      Ok { rid; status = Bounded { reason = reason (); configs }; queue_ms; total_ms }
    | Some "rejected" -> Ok { rid; status = Rejected (reason ()); queue_ms; total_ms }
    | Some "error" -> Ok { rid; status = Error (reason ()); queue_ms; total_ms }
    | Some "pong" -> Ok { rid; status = Pong; queue_ms; total_ms }
    | Some "stats" -> (
      match Json.member "stats" doc with
      | Some (Json.Obj _ as stats) ->
        (* re-serialise so the carried document is canonical compact JSON
           whatever whitespace the peer used *)
        Ok { rid; status = Stats_doc (Json.to_string stats); queue_ms; total_ms }
      | _ -> Result.Error "stats response: missing object \"stats\"")
    | Some "health" -> (
      match str_member "state" doc with
      | Some s -> Ok { rid; status = Health_state s; queue_ms; total_ms }
      | None -> Result.Error "health response: missing string \"state\"")
    | Some s -> Result.Error (Printf.sprintf "unknown status %S" s)
    | None -> Result.Error "missing string \"status\"")

(* --- dda.service/2: length-prefixed binary frames ----------------------------- *)

let schema2 = "dda.service/2"
let magic = "DDA2"
let max_frame = 1 lsl 20

(* encoding: big-endian throughout; strings are u16 length + bytes *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let add_u16 b v =
  add_u8 b (v lsr 8);
  add_u8 b v

let add_u32 b v =
  add_u8 b (v lsr 24);
  add_u8 b (v lsr 16);
  add_u8 b (v lsr 8);
  add_u8 b v

let add_f64 b f =
  let bits = Int64.bits_of_float f in
  for i = 7 downto 0 do
    add_u8 b (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
  done

let add_str16 b s =
  let n = String.length s in
  if n > 0xffff then invalid_arg (schema2 ^ ": string field exceeds 65535 bytes");
  add_u16 b n;
  Buffer.add_string b s

(* stats documents can outgrow a str16 on a busy server *)
let add_str32 b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let frame payload_of =
  let b = Buffer.create 96 in
  add_u32 b 0;  (* placeholder *)
  payload_of b;
  let out = Buffer.to_bytes b in
  let n = Bytes.length out - 4 in
  Bytes.set_uint8 out 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 out 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 out 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 out 3 (n land 0xff);
  Bytes.unsafe_to_string out

let frame_length hdr =
  if String.length hdr < 4 then invalid_arg "frame_length: header shorter than 4 bytes";
  (Char.code hdr.[0] lsl 24)
  lor (Char.code hdr.[1] lsl 16)
  lor (Char.code hdr.[2] lsl 8)
  lor Char.code hdr.[3]

(* request ops *)
let op_decide = 1
let op_ping = 2
let op_stats = 3
let op_health = 4

(* response statuses *)
let st_ok = 0
let st_bounded = 1
let st_rejected = 2
let st_error = 3
let st_pong = 4
let st_stats = 5
let st_health = 6

let encode_request_frame = function
  | Ping id ->
    frame (fun b ->
        add_u8 b op_ping;
        add_str16 b id)
  | Stats id ->
    frame (fun b ->
        add_u8 b op_stats;
        add_str16 b id)
  | Health id ->
    frame (fun b ->
        add_u8 b op_health;
        add_str16 b id)
  | Decide d ->
    frame (fun b ->
        add_u8 b op_decide;
        add_str16 b d.id;
        add_str16 b d.protocol;
        add_str16 b d.graph;
        add_u8 b (Char.code (Spec.regime_name d.regime).[0]);
        add_u32 b d.max_configs;
        (match d.deadline_ms with
        | None -> add_u8 b 0
        | Some ms ->
          add_u8 b 1;
          add_u32 b ms);
        match d.trace with
        | None -> add_u8 b 0
        | Some t ->
          add_u8 b 1;
          add_str16 b t)

let encode_response_frame r =
  frame (fun b ->
      (match r.status with
      | Verdict v ->
        add_u8 b st_ok;
        add_str16 b r.rid;
        add_str16 b v.verdict;
        add_u8 b (if v.cached then 1 else 0);
        add_u32 b v.configs;
        add_f64 b v.seconds
      | Bounded bd ->
        add_u8 b st_bounded;
        add_str16 b r.rid;
        add_str16 b bd.reason;
        add_u32 b bd.configs
      | Rejected reason ->
        add_u8 b st_rejected;
        add_str16 b r.rid;
        add_str16 b reason
      | Error reason ->
        add_u8 b st_error;
        add_str16 b r.rid;
        add_str16 b reason
      | Pong ->
        add_u8 b st_pong;
        add_str16 b r.rid
      | Stats_doc doc ->
        add_u8 b st_stats;
        add_str16 b r.rid;
        add_str32 b doc
      | Health_state s ->
        add_u8 b st_health;
        add_str16 b r.rid;
        add_str16 b s);
      match r.status with
      | Rejected _ | Error _ | Pong | Stats_doc _ | Health_state _ -> ()
      | _ ->
        add_f64 b r.queue_ms;
        add_f64 b r.total_ms)

(* --- Raw frame surgery (the router's response relay) -------------------------- *)

(* Both payload layouts open the same way — a tag byte (request op or
   response status) followed by the id as a str16 — so a proxy can match
   and rewrite ids without decoding the op-specific body. *)

let payload_tag p = if String.length p >= 1 then Char.code p.[0] else -1

let payload_id p =
  if String.length p < 3 then None
  else begin
    let n = (Char.code p.[1] lsl 8) lor Char.code p.[2] in
    if 3 + n > String.length p then None else Some (String.sub p 3 n)
  end

let payload_body p =
  if String.length p < 3 then None
  else begin
    let n = (Char.code p.[1] lsl 8) lor Char.code p.[2] in
    if 3 + n > String.length p then None
    else Some (String.sub p (3 + n) (String.length p - 3 - n))
  end

(* one allocation and two blits: length prefix, tag, str16 id, body *)
let reframe ~tag ~id ~body =
  let idn = String.length id in
  if idn > 0xffff then invalid_arg (schema2 ^ ": id exceeds 65535 bytes");
  let len = 3 + idn + String.length body in
  let out = Bytes.create (4 + len) in
  Bytes.set_uint8 out 0 ((len lsr 24) land 0xff);
  Bytes.set_uint8 out 1 ((len lsr 16) land 0xff);
  Bytes.set_uint8 out 2 ((len lsr 8) land 0xff);
  Bytes.set_uint8 out 3 (len land 0xff);
  Bytes.set_uint8 out 4 (tag land 0xff);
  Bytes.set_uint8 out 5 ((idn lsr 8) land 0xff);
  Bytes.set_uint8 out 6 (idn land 0xff);
  Bytes.blit_string id 0 out 7 idn;
  Bytes.blit_string body 0 out (7 + idn) (String.length body);
  Bytes.unsafe_to_string out

(* Defensive decoding: every read is bounds-checked, every failure is a
   [Decode] carried out as [Error] — junk payloads must never raise out of
   the parser (the fuzz test feeds random bytes through here). *)

exception Decode of string

type cursor = { c_s : string; mutable c_pos : int }

let need c n =
  if c.c_pos + n > String.length c.c_s then
    raise (Decode (Printf.sprintf "truncated payload at byte %d" c.c_pos))

let get_u8 c =
  need c 1;
  let v = Char.code c.c_s.[c.c_pos] in
  c.c_pos <- c.c_pos + 1;
  v

let get_u16 c =
  let hi = get_u8 c in
  let lo = get_u8 c in
  (hi lsl 8) lor lo

let get_u32 c =
  let hi = get_u16 c in
  let lo = get_u16 c in
  (hi lsl 16) lor lo

let get_f64 c =
  need c 8;
  let bits = ref 0L in
  for _ = 1 to 8 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (get_u8 c))
  done;
  Int64.float_of_bits !bits

let get_str16 c =
  let n = get_u16 c in
  need c n;
  let s = String.sub c.c_s c.c_pos n in
  c.c_pos <- c.c_pos + n;
  s

let get_str32 c =
  let n = get_u32 c in
  if n > max_frame then raise (Decode (Printf.sprintf "str32 length %d exceeds frame cap" n));
  need c n;
  let s = String.sub c.c_s c.c_pos n in
  c.c_pos <- c.c_pos + n;
  s

let decode_request_payload ?(default_max_configs = 200_000) payload =
  let c = { c_s = payload; c_pos = 0 } in
  match
    let op = get_u8 c in
    let id = get_str16 c in
    (id, op)
  with
  | exception Decode e -> Result.Error { err_id = ""; err_reason = e }
  | id, op -> (
    let fail reason = Result.Error { err_id = id; err_reason = reason } in
    match op with
    | _ when op = op_ping -> Ok (Ping id)
    | _ when op = op_stats -> Ok (Stats id)
    | _ when op = op_health -> Ok (Health id)
    | _ when op = op_decide -> (
      match
        let protocol = get_str16 c in
        let graph = get_str16 c in
        let regime_byte = get_u8 c in
        let max_configs = get_u32 c in
        let deadline_ms =
          match get_u8 c with
          | 0 -> None
          | 1 -> Some (get_u32 c)
          | n -> raise (Decode (Printf.sprintf "bad deadline flag %d" n))
        in
        let trace =
          (* absent on frames from pre-trace encoders: accept both *)
          if c.c_pos >= String.length payload then None
          else
            match get_u8 c with
            | 0 -> None
            | 1 -> Some (get_str16 c)
            | n -> raise (Decode (Printf.sprintf "bad trace flag %d" n))
        in
        (protocol, graph, regime_byte, max_configs, deadline_ms, trace)
      with
      | exception Decode e -> fail e
      | protocol, graph, regime_byte, max_configs, deadline_ms, trace -> (
        match Spec.parse_regime (String.make 1 (Char.chr regime_byte)) with
        | Result.Error e -> fail e
        | Ok regime ->
          let max_configs = if max_configs = 0 then default_max_configs else max_configs in
          Ok (Decide { id; protocol; graph; regime; max_configs; deadline_ms; trace })))
    | op -> fail (Printf.sprintf "unknown op byte %d (1=decide, 2=ping, 3=stats, 4=health)" op))

let decode_response_payload payload =
  let c = { c_s = payload; c_pos = 0 } in
  match
    let st = get_u8 c in
    let rid = get_str16 c in
    let status, has_times =
      if st = st_ok then begin
        let verdict = get_str16 c in
        let cached = get_u8 c <> 0 in
        let configs = get_u32 c in
        let seconds = get_f64 c in
        (Verdict { verdict; cached; configs; seconds }, true)
      end
      else if st = st_bounded then begin
        let reason = get_str16 c in
        let configs = get_u32 c in
        (Bounded { reason; configs }, true)
      end
      else if st = st_rejected then (Rejected (get_str16 c), false)
      else if st = st_error then (Error (get_str16 c), false)
      else if st = st_pong then (Pong, false)
      else if st = st_stats then (Stats_doc (get_str32 c), false)
      else if st = st_health then (Health_state (get_str16 c), false)
      else raise (Decode (Printf.sprintf "unknown status byte %d" st))
    in
    let queue_ms = if has_times then get_f64 c else 0. in
    let total_ms = if has_times then get_f64 c else 0. in
    { rid; status; queue_ms; total_ms }
  with
  | exception Decode e -> Result.Error e
  | r -> Ok r

(* --- Addresses --------------------------------------------------------------- *)

type address =
  | Unix_socket of string
  | Tcp of string * int

let parse_tcp s host port =
  match int_of_string_opt port with
  | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
  | _ -> Result.Error (Printf.sprintf "bad TCP address %S (expected HOST:PORT or [V6]:PORT)" s)

let parse_address s =
  if s = "" then Result.Error "empty address"
  else if String.contains s '/' || Filename.check_suffix s ".sock" then Ok (Unix_socket s)
  else if s.[0] = '[' then (
    (* bracketed IPv6 literal: [::1]:7777 *)
    match String.index_opt s ']' with
    | Some i when i > 1 && i + 2 < String.length s && s.[i + 1] = ':' ->
      parse_tcp s (String.sub s 1 (i - 1)) (String.sub s (i + 2) (String.length s - i - 2))
    | _ -> Result.Error (Printf.sprintf "bad TCP address %S (expected [V6]:PORT)" s))
  else
    match String.rindex_opt s ':' with
    | Some i -> parse_tcp s (String.sub s 0 i) (String.sub s (i + 1) (String.length s - i - 1))
    | None -> Ok (Unix_socket s)

let address_to_string = function
  | Unix_socket p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

(* EXPERIMENTS.md quotes the performance record of E11–E18 from committed
   files: each of those sections names its file on a [Source:] line
   (BENCH_verify.json, written by bench/main.exe, or
   bench/perfbench-seed1.txt, the output of perfbench's seed-1 run), and
   every bare number in the section's tables must be a value of that file
   at the precision the table prints.  A perfbench row names its metric in
   backticks in its first cell and must quote a value of that metric; a
   BENCH_verify.json row may quote any value of the file.  A table copied
   from an earlier run fails here. *)

let perfbench = "bench/perfbench-seed1.txt"
let sources = [ "BENCH_verify.json"; perfbench ]

(* dune runs the suite in _build/default/test with the files copied one
   level up; [dune exec] runs it from the checkout's root *)
let root = if Sys.file_exists "../EXPERIMENTS.md" then ".." else "."
let read rel = In_channel.with_open_bin (Filename.concat root rel) In_channel.input_all

let is_digit c = c >= '0' && c <= '9'

let is_word c = is_digit c || c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

(* every numeric token of a file: integers, decimals and exponent forms,
   as they appear in JSON and in perfbench's "metric name value" lines.
   Digits glued to a word ("p50_ms", "s6.1") are part of a name, not a
   value. *)
let numbers_of text =
  let n = String.length text in
  let rec scan i acc =
    if i >= n then acc
    else if i > 0 && is_word text.[i - 1] then scan (i + 1) acc
    else if is_digit text.[i] || (text.[i] = '-' && i + 1 < n && is_digit text.[i + 1]) then begin
      let j = ref (i + 1) in
      let digits () = while !j < n && is_digit text.[!j] do incr j done in
      digits ();
      if !j + 1 < n && text.[!j] = '.' && is_digit text.[!j + 1] then begin
        incr j;
        digits ()
      end;
      if !j + 1 < n && (text.[!j] = 'e' || text.[!j] = 'E') then begin
        let k = if text.[!j + 1] = '-' || text.[!j + 1] = '+' then !j + 2 else !j + 1 in
        if k < n && is_digit text.[k] then begin
          j := k;
          digits ()
        end
      end;
      scan !j (float_of_string (String.sub text i (!j - i)) :: acc)
    end
    else scan (i + 1) acc
  in
  scan 0 []

let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) and m = String.length sub in
  let rec go i =
    if i > String.length s - m then Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i m = sub then begin
      Buffer.add_string b by;
      go (i + m)
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

(* A table cell as a number: spaces (digit grouping), "×", "%" and "**"
   stripped, U+2212 read as a minus sign.  [Some (value, decimals)] when
   what is left is a plain signed decimal, [None] for any other cell. *)
let bare_number cell =
  let s =
    List.fold_left
      (fun s (sub, by) -> replace_all ~sub ~by s)
      cell
      [ (" ", ""); ("\xc3\x97", ""); ("%", ""); ("**", ""); ("\xe2\x88\x92", "-") ]
  in
  let body = if s <> "" && (s.[0] = '-' || s.[0] = '+') then String.sub s 1 (String.length s - 1) else s in
  let ok = ref (body <> "" && is_digit body.[0]) and dots = ref 0 in
  String.iter (fun c -> if c = '.' then incr dots else if not (is_digit c) then ok := false) body;
  if (not !ok) || !dots > 1 || body.[String.length body - 1] = '.' then None
  else
    let decimals =
      match String.index_opt body '.' with Some i -> String.length body - i - 1 | None -> 0
    in
    Some (float_of_string s, decimals)

(* the first index at or after [i] where [sub] occurs in [s] *)
let rec find sub s i =
  if i + String.length sub > String.length s then None
  else if String.sub s i (String.length sub) = sub then Some i
  else find sub s (i + 1)

(* the lines of perfbench's output that belong to [workload]: from its
   [env] line to the next one *)
let workload_block text workload =
  let tag = Printf.sprintf {|"workload":"%s"|} workload in
  let is_env l = String.starts_with ~prefix:"env " l in
  let rec skip = function
    | [] -> []
    | l :: rest -> if is_env l && find tag l 0 <> None then take rest else skip rest
  and take = function l :: rest when not (is_env l) -> l :: take rest | _ -> [] in
  String.concat "\n" (skip (String.split_on_char '\n' text))

(* the values perfbench's output gives the metric [name]: its
   "kind name value [unit]" lines and ["name":value] in its result lines *)
let named_values text name =
  let key = "\"" ^ name ^ "\":" in
  let k = String.length key in
  let json_values line =
    let n = String.length line in
    let rec from i acc =
      match find key line i with
      | None -> acc
      | Some i ->
        let j = ref (i + k) in
        while !j < n && String.contains "0123456789.-+eE" line.[!j] do incr j done;
        from !j (Option.to_list (float_of_string_opt (String.sub line (i + k) (!j - i - k))) @ acc)
    in
    from 0 []
  in
  List.concat_map
    (fun line ->
      match String.split_on_char ' ' line with
      | _kind :: n :: v :: _ when n = name -> Option.to_list (float_of_string_opt v)
      | _ -> json_values line)
    (String.split_on_char '\n' text)

(* the first `name` of a cell *)
let backticked cell =
  match String.split_on_char '`' cell with _ :: name :: _ :: _ -> Some name | _ -> None

(* [v] printed with [decimals] digits is [x] rounded: within half a unit
   of the last printed digit (plus float slack for the .5 boundary) *)
let quotes ~value:(v, decimals) x =
  Float.abs (x -. v) <= (0.5 *. (10. ** float_of_int (-decimals))) +. (1e-9 *. Float.max 1. (Float.abs v))

type section = { heading : string; lines : string list }

let sections text =
  let flush cur acc = match cur with Some s -> { s with lines = List.rev s.lines } :: acc | None -> acc in
  let cur, acc =
    List.fold_left
      (fun (cur, acc) line ->
        if String.starts_with ~prefix:"## " line then (Some { heading = line; lines = [] }, flush cur acc)
        else
          match cur with
          | Some s -> (Some { s with lines = line :: s.lines }, acc)
          | None -> (None, acc))
      (None, [])
      (String.split_on_char '\n' text)
  in
  List.rev (flush cur acc)

(* "## E11 — ..." .. "## E18 — ..." *)
let is_perf_section s =
  List.exists
    (fun k -> String.starts_with ~prefix:(Printf.sprintf "## E%d " k) s.heading)
    [ 11; 12; 13; 14; 15; 16; 17; 18 ]

(* a section's source: "Source: `BENCH_verify.json`" or, for perfbench's
   output, "Source: `bench/perfbench-seed1.txt`, workload `NAME`" *)
let source_of s =
  match List.filter (String.starts_with ~prefix:"Source:") s.lines with
  | [ line ] -> (
    match String.split_on_char '`' line with
    | [ "Source: "; file; "" ] when List.mem file sources && file <> perfbench -> Ok (file, None)
    | [ "Source: "; file; ", workload "; workload; "" ] when file = perfbench -> Ok (file, Some workload)
    | _ ->
      Error
        (Printf.sprintf "%s: %S is neither Source: `BENCH_verify.json` nor Source: `%s`, workload `NAME`"
           s.heading line perfbench))
  | [] -> Error (s.heading ^ ": no Source: line")
  | _ -> Error (s.heading ^ ": more than one Source: line")

(* the cells of every body row of the section's markdown tables
   (separator rows skipped; header cells are names, never bare numbers) *)
let table_rows s =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if String.length line < 2 || line.[0] <> '|' || String.starts_with ~prefix:"|---" line then None
      else
        let cells = String.split_on_char '|' line in
        Some (List.filteri (fun i _ -> i > 0 && i < List.length cells - 1) cells |> List.map String.trim))
    s.lines

(* the numbers of one section that [text] does not hold: with [~named],
   each row must name a metric of [text] and quote its values *)
let unsourced ~named ~text s =
  let numbers = lazy (numbers_of text) in
  List.concat_map
    (fun row ->
      let cells = List.filter (fun c -> bare_number c <> None) row in
      let holds values c = List.exists (quotes ~value:(Option.get (bare_number c))) values in
      if cells = [] then []
      else if not named then List.filter (fun c -> not (holds (Lazy.force numbers) c)) cells
      else
        match Option.bind (List.nth_opt row 0) backticked with
        | None -> List.map (fun c -> c ^ " (its row names no `metric`)") cells
        | Some name ->
          List.filter_map
            (fun c -> if holds (named_values text name) c then None else Some (Printf.sprintf "%s (not a value of `%s`)" c name))
            cells)
    (table_rows s)

let perf_sections () = List.filter is_perf_section (sections (read "EXPERIMENTS.md"))

let test_sections_name_a_source () =
  let secs = perf_sections () in
  Alcotest.(check int) "E11..E18 all present" 8 (List.length secs);
  List.iter (fun s -> match source_of s with Ok _ -> () | Error e -> Alcotest.fail e) secs

let test_table_numbers_are_sourced () =
  let texts = List.map (fun f -> (f, read f)) sources in
  let secs = perf_sections () in
  let failures =
    List.filter_map
      (fun s ->
        match source_of s with
        | Error e -> Some e
        | Ok (src, workload) -> (
          let text = List.assoc src texts in
          let text = match workload with Some w -> workload_block text w | None -> text in
          let where = src ^ match workload with Some w -> ", workload " ^ w | None -> "" in
          if text = "" then Some (Printf.sprintf "%s: %s holds nothing" s.heading where)
          else
            match unsourced ~named:(workload <> None) ~text s with
            | [] -> None
            | cells ->
              Some
                (Printf.sprintf "%s: table cells not in %s: %s" s.heading where (String.concat " | " cells))))
      secs
  in
  if failures <> [] then
    Alcotest.fail
      (String.concat "\n" failures
      ^ "\n(a bench/main.exe run rewrites BENCH_verify.json in its working directory; if one ran \
         in the checkout, `git checkout BENCH_verify.json` restores the committed file)");
  let checked =
    List.concat_map table_rows secs |> List.concat |> List.filter (fun c -> bare_number c <> None) |> List.length
  in
  Alcotest.(check bool) "the tables hold numbers to check" true (checked > 0)

(* the matcher itself, on the cases the documents use *)
let test_matcher () =
  let check_rows ~named ~text ~sourced rows =
    List.iter
      (fun row ->
        let got = unsourced ~named ~text { heading = "t"; lines = [ row ] } = [] in
        Alcotest.(check bool) ((if sourced then "sourced " else "unsourced ") ^ row) sourced got)
      rows
  in
  let json = {|{"seconds": 100.8729, "median": 88349.2412, "delta_pct": 0.91, "rss_ratio": 4.45, "p50_ms": 0.124}|} in
  let cell c = "| x | " ^ c ^ " |" in
  check_rows ~named:false ~text:json ~sourced:true
    (List.map cell [ "100.9"; "88 349"; "**+0.91 %**"; "4.45×"; "0.12"; "—"; "256 MB"; "90/96" ]);
  check_rows ~named:false ~text:json ~sourced:false
    (List.map cell [ "90.0"; "100.88"; "92 126"; "\xe2\x88\x920.91 %"; "50" ]);
  let out =
    workload_block
      {|env {"workload":"explore","seed":1}
metric setup_s 6.70841e-05 s
count configs 422726
detail passes 11 count
{"correct":true,"attempted":66,"failed":0,"metrics":{"wall_s":{"value":1.75,"unit":"s"}}}
env {"workload":"batch","seed":1}
count configs 19410|}
      "explore"
  in
  check_rows ~named:true ~text:out ~sourced:true
    [ "| `setup_s` (setup) | 0.0000671 | s |"; "| configurations (`configs`) | 422 726 | count |";
      "| `passes` | 11 | count |"; "| operations (`attempted`) | 66 | count |"; "| `failed` | 0 | count |";
      "| `configs` | — | count |" ];
  check_rows ~named:true ~text:out ~sourced:false
    [ "| `setup_s` | 0.0000672 | s |"; "| `configs` | 422 727 | count |"; "| `configs` | 11 | count |"; "| `configs` | 19 410 | count |";
      "| passes in the run | 11 | count |"; "| `nonesuch` | 11 | count |"; "| `attempted` | 0 | count |" ]

let () =
  Alcotest.run "experiments"
    [
      ( "experiments",
        [
          Alcotest.test_case "E11-E18 name a source" `Quick test_sections_name_a_source;
          Alcotest.test_case "table numbers come from the source" `Quick
            test_table_numbers_are_sourced;
          Alcotest.test_case "matcher" `Quick test_matcher;
        ] );
    ]

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Assoc of (string * json) list

(* --- emission --- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_nan f || Float.is_integer f && Float.abs f < 1e15 then
    (* Integral floats print without a trailing dot so the output stays
       valid JSON; NaN has no JSON spelling at all. *)
    if Float.is_nan f then "null" else Printf.sprintf "%.0f" f
  else if f = Float.infinity then "1e999"
  else if f = Float.neg_infinity then "-1e999"
  else
    let s = Printf.sprintf "%.12g" f in
    s

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf x)
        xs;
      Buffer.add_char buf ']'
  | Assoc kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          emit buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  emit buf j;
  Buffer.contents buf

let to_channel oc j = output_string oc (to_string j)

let write_file path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      to_channel oc j;
      output_char oc '\n')

(* --- parsing (enough JSON to read our own output back) --- *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("bad literal " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' | '\\' | '/' ->
              Buffer.add_char buf e;
              go ()
          | 'n' -> Buffer.add_char buf '\n'; go ()
          | 't' -> Buffer.add_char buf '\t'; go ()
          | 'r' -> Buffer.add_char buf '\r'; go ()
          | 'b' -> Buffer.add_char buf '\b'; go ()
          | 'f' -> Buffer.add_char buf '\012'; go ()
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let code =
                match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              (* Decode BMP code points to UTF-8.  Surrogate halves
                 (D800-DFFF) encode astral-plane characters as pairs;
                 we do not reassemble those — each half folds to '?',
                 which is lossy but keeps the parser single-pass (the
                 exporters only ever emit \u for control characters, so
                 this path never fires on our own output). *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else if code >= 0xD800 && code <= 0xDFFF then
                Buffer.add_char buf '?'
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end;
              go ()
          | _ -> fail "bad escape")
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail ("bad number " ^ tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Assoc []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Assoc (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (elements [])
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
  | exception Failure msg -> Error msg

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match of_string (String.trim text) with
      | Ok doc -> Ok doc
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

(* --- accessors for consumers of parsed documents --- *)

let member key = function
  | Assoc kvs -> List.assoc_opt key kvs
  | _ -> None

let to_int = function Int i -> Some i | Float f -> Some (int_of_float f) | _ -> None
let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
let to_string_opt = function String s -> Some s | _ -> None

(* --- registry exporters --- *)

let json_of_sample = function
  | Metrics.Counter_sample c -> [ ("type", String "counter"); ("value", Int c) ]
  | Metrics.Gauge_sample g -> [ ("type", String "gauge"); ("value", Float g) ]
  | Metrics.Histogram_sample h ->
      [ ("type", String "histogram");
        ("count", Int (Hist.count h));
        ("sum", Float (Hist.sum h));
        ("buckets",
         List
           (List.init (Hist.buckets h) (fun i ->
                Assoc
                  [ ("le", Float (Hist.bucket_upper h i));
                    ("count", Int (Hist.bucket_count h i)) ]))) ]

let json_of_registry reg =
  List
    (List.map
       (fun (name, help, labels, sample) ->
         Assoc
           ((("name", String name)
             :: (if help = "" then [] else [ ("help", String help) ]))
           @ (if labels = [] then []
              else
                [ ("labels", Assoc (List.map (fun (k, v) -> (k, String v)) labels)) ])
           @ json_of_sample sample))
       (Metrics.snapshot reg))

(* --- Hist / Timeseries exporters --- *)

let json_of_hist h =
  Assoc
    [ ("min_exp", Int (Hist.min_exp h));
      ("counts",
       List (List.init (Hist.buckets h) (fun i -> Int (Hist.bucket_count h i))));
      ("sum", Float (Hist.sum h)) ]

let int_list_of_json j =
  match to_list_opt j with
  | None -> None
  | Some xs ->
      let ints = List.filter_map to_int xs in
      if List.length ints = List.length xs then Some (Array.of_list ints) else None

let float_list_of_json j =
  match to_list_opt j with
  | None -> None
  | Some xs ->
      let fs = List.filter_map to_float xs in
      if List.length fs = List.length xs then Some (Array.of_list fs) else None

let hist_of_json j =
  match
    ( Option.bind (member "min_exp" j) to_int,
      Option.bind (member "counts" j) int_list_of_json,
      Option.bind (member "sum" j) to_float )
  with
  | Some min_exp, Some counts, Some sum -> (
      match Hist.of_raw ~min_exp ~counts ~sum with
      | h -> Ok h
      | exception Invalid_argument msg -> Error msg)
  | _ -> Error "hist_of_json: expected {min_exp, counts, sum}"

let json_of_timeseries ts =
  let nb = Timeseries.used ts in
  Assoc
    [ ("capacity", Int (Timeseries.capacity ts));
      ("base_resolution", Float (Timeseries.base_resolution ts));
      ("level", Int (Timeseries.level ts));
      ("counts", List (List.init nb (fun i -> Int (Timeseries.bucket_count ts i))));
      ("sums", List (List.init nb (fun i -> Float (Timeseries.bucket_sum ts i)))) ]

let timeseries_of_json j =
  match
    ( Option.bind (member "capacity" j) to_int,
      Option.bind (member "base_resolution" j) to_float,
      Option.bind (member "level" j) to_int,
      Option.bind (member "counts" j) int_list_of_json,
      Option.bind (member "sums" j) float_list_of_json )
  with
  | Some capacity, Some resolution, Some level, Some counts, Some sums -> (
      match Timeseries.of_raw ~capacity ~resolution ~level ~counts ~sums with
      | ts -> Ok ts
      | exception Invalid_argument msg -> Error msg)
  | _ ->
      Error
        "timeseries_of_json: expected {capacity, base_resolution, level, counts, \
         sums}"

let prom_escape s =
  String.concat ""
    (List.map
       (function
         | '\\' -> "\\\\" | '"' -> "\\\"" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let prom_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v))
             labels)
      ^ "}"

let prom_float f =
  if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.12g" f

let prom_header buf ~name ~help kind =
  if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

(* The one histogram renderer: cumulative [_bucket] lines whose [le=]
   edges are [Hist.uppers], then [_sum] and [_count]. *)
let prom_hist_lines buf ~name ~labels h =
  let cumulative = ref 0 in
  Array.iteri
    (fun i upper ->
      cumulative := !cumulative + Hist.bucket_count h i;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket%s %d\n" name
           (prom_labels (labels @ [ ("le", prom_float upper) ]))
           !cumulative))
    (Hist.uppers h);
  Buffer.add_string buf
    (Printf.sprintf "%s_sum%s %s\n" name (prom_labels labels)
       (prom_float (Hist.sum h)));
  Buffer.add_string buf
    (Printf.sprintf "%s_count%s %d\n" name (prom_labels labels) (Hist.count h))

let prometheus_append_hist buf ~name ?(help = "") ?(labels = []) h =
  prom_header buf ~name ~help "histogram";
  prom_hist_lines buf ~name ~labels h

let prometheus_of_registry reg =
  let buf = Buffer.create 4096 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun (name, help, labels, sample) ->
      let kind =
        match sample with
        | Metrics.Counter_sample _ -> "counter"
        | Metrics.Gauge_sample _ -> "gauge"
        | Metrics.Histogram_sample _ -> "histogram"
      in
      if not (Hashtbl.mem seen_header name) then begin
        Hashtbl.add seen_header name ();
        prom_header buf ~name ~help kind
      end;
      match sample with
      | Metrics.Counter_sample c ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" name (prom_labels labels) c)
      | Metrics.Gauge_sample g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name (prom_labels labels) (prom_float g))
      | Metrics.Histogram_sample h -> prom_hist_lines buf ~name ~labels h)
    (Metrics.snapshot reg);
  Buffer.contents buf

let prometheus_of_hist ~name ?help ?labels h =
  let buf = Buffer.create 512 in
  prometheus_append_hist buf ~name ?help ?labels h;
  Buffer.contents buf

(* A time series becomes two gauge vectors labelled by the inclusive
   bucket start time: per-bucket event counts and value sums. *)
let prometheus_append_timeseries buf ~name ?(help = "") ?(labels = []) ts =
  let emit suffix value_of =
    let metric = name ^ suffix in
    prom_header buf ~name:metric ~help "gauge";
    for i = 0 to Timeseries.used ts - 1 do
      Buffer.add_string buf
        (Printf.sprintf "%s%s %s\n" metric
           (prom_labels
              (labels @ [ ("t", prom_float (Timeseries.bucket_start ts i)) ]))
           (value_of i))
    done
  in
  emit "_bucket_count" (fun i -> string_of_int (Timeseries.bucket_count ts i));
  emit "_bucket_sum" (fun i -> prom_float (Timeseries.bucket_sum ts i))

let prometheus_of_timeseries ~name ?help ?labels ts =
  let buf = Buffer.create 512 in
  prometheus_append_timeseries buf ~name ?help ?labels ts;
  Buffer.contents buf

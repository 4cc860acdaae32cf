open Export

(* Sim seconds -> trace microseconds. *)
let us t = t *. 1e6

let meta ~pid ~tid ~field name =
  Assoc
    [ ("name", String field);
      ("ph", String "M");
      ("ts", Float 0.0);
      ("pid", Int pid);
      ("tid", Int tid);
      ("args", Assoc [ ("name", String name) ]) ]

let event_json (e : Span.entry) =
  let ph, extra =
    match e.Span.kind with
    | Span.Complete { duration } -> ("X", [ ("dur", Float (us duration)) ])
    | Span.Instant -> ("i", [ ("s", String "t") ])
    | Span.Verdict _ -> ("i", [ ("s", String "g") ])
  in
  let provenance =
    match e.Span.kind with
    | Span.Verdict { detector; subject; suspects; confidence; alarm; detail; evidence; _ }
      ->
        [ ("detector", String detector) ]
        @ (match subject with Some s -> [ ("subject", Int s) ] | None -> [])
        @ [ ("suspects", List (List.map (fun s -> Int s) suspects)) ]
        @ (match confidence with Some c -> [ ("confidence", Float c) ] | None -> [])
        @ [ ("alarm", Bool alarm) ]
        @ (if detail = "" then [] else [ ("detail", String detail) ])
        @ [ ("evidence", List (List.map (fun i -> Int i) evidence)) ]
    | _ -> []
  in
  let args =
    let routers = Span.entry_routers e in
    (("id", Int e.Span.id)
     :: (if e.Span.trace <> 0 then [ ("trace", Int e.Span.trace) ] else []))
    @ (if routers = [] then []
       else [ ("routers", List (List.map (fun r -> Int r) routers)) ])
    @ Span.entry_args e @ provenance
  in
  Assoc
    ([ ("name", String e.Span.name);
       ("cat", String (if e.Span.cat = "" then "misc" else e.Span.cat));
       ("ph", String ph);
       ("ts", Float (us e.Span.time));
       ("pid", Int e.Span.pid);
       ("tid", Int e.Span.tid) ]
    @ extra
    @ [ ("args", Assoc args) ])

let document t =
  let metas =
    List.map
      (fun (pid, name) -> meta ~pid ~tid:0 ~field:"process_name" name)
      (List.sort compare (Span.process_names t))
    @ List.map
        (fun ((pid, tid), name) -> meta ~pid ~tid ~field:"thread_name" name)
        (List.sort compare (Span.thread_names t))
  in
  Assoc
    [ ("displayTimeUnit", String "ms");
      ( "otherData",
        Assoc
          [ ("schema", String "mrdetect-trace-v1");
            ("sample_rate", Float (Span.sample_rate t));
            ("traces_started", Int (Span.traces_started t));
            ("traces_sampled", Int (Span.traces_sampled t));
            ("entries_recorded", Int (Span.recorded t));
            ("entries_evicted", Int (Span.dropped t));
            ("entries_pinned", Int (Span.pinned t)) ] );
      ("traceEvents", List (metas @ List.map event_json (Span.entries t))) ]

let write path t = Export.write_file path (document t)

(* --- reading a trace file back --- *)

let events doc =
  match Option.bind (member "traceEvents" doc) to_list_opt with
  | Some evs -> Ok evs
  | None -> Error "no traceEvents array"

let str_field k ev = Option.bind (member k ev) to_string_opt
let int_field k ev = Option.bind (member k ev) to_int
let float_field k ev = Option.bind (member k ev) to_float
let arg k ev = Option.bind (member "args" ev) (member k)

let event_id ev = Option.bind (arg "id" ev) to_int

let evidence_ids ev =
  match Option.bind (arg "evidence" ev) to_list_opt with
  | Some ids -> Some (List.filter_map to_int ids)
  | None -> None

let validate doc =
  let ( let* ) = Result.bind in
  let* evs = events doc in
  let ids = Hashtbl.create 256 in
  List.iter
    (fun ev -> match event_id ev with Some i -> Hashtbl.replace ids i () | None -> ())
    evs;
  let rec check i last_ts = function
    | [] -> Ok ()
    | ev :: rest -> (
        let fail msg = Error (Printf.sprintf "event %d: %s" i msg) in
        match (str_field "ph" ev, float_field "ts" ev) with
        | None, _ -> fail "missing ph"
        | _, None -> fail "missing ts"
        | Some ph, Some ts ->
            if int_field "pid" ev = None then fail "missing pid"
            else if int_field "tid" ev = None then fail "missing tid"
            else if not (List.mem ph [ "M"; "X"; "i" ]) then
              fail ("unexpected phase " ^ ph)
            else if ts < last_ts then
              fail (Printf.sprintf "ts %g goes backwards (previous %g)" ts last_ts)
            else if
              ph = "X"
              && match float_field "dur" ev with Some d -> d < 0.0 | None -> true
            then fail "X event without a non-negative dur"
            else begin
              match evidence_ids ev with
              | Some refs -> (
                  match List.find_opt (fun r -> not (Hashtbl.mem ids r)) refs with
                  | Some missing ->
                      fail
                        (Printf.sprintf "verdict references unknown entry id %d"
                           missing)
                  | None -> check (i + 1) ts rest)
              | None -> check (i + 1) ts rest
            end)
  in
  check 0 neg_infinity evs

type verdict = Span.verdict

let verdict_of_event ev =
  match (str_field "cat" ev, Option.bind (arg "detector" ev) to_string_opt) with
  | Some "verdict", Some detector ->
      Some
        { Span.time = Option.value ~default:0.0 (float_field "ts" ev) /. 1e6;
          detector;
          subject = Option.bind (arg "subject" ev) to_int;
          suspects =
            (match Option.bind (arg "suspects" ev) to_list_opt with
            | Some xs -> List.filter_map to_int xs
            | None -> []);
          confidence = Option.bind (arg "confidence" ev) to_float;
          alarm = (match arg "alarm" ev with Some (Bool b) -> b | _ -> false);
          detail =
            Option.value ~default:"" (Option.bind (arg "detail" ev) to_string_opt);
          evidence = Option.value ~default:[] (evidence_ids ev) }
  | _ -> None

let verdicts doc =
  match events doc with
  | Error _ -> []
  | Ok evs -> List.filter_map verdict_of_event evs

(* --- the evidence-chain renderer behind `mrdetect trace explain` --- *)

let describe_event ev =
  let name = Option.value ~default:"?" (str_field "name" ev) in
  let cat = Option.value ~default:"" (str_field "cat" ev) in
  let ts = Option.value ~default:0.0 (float_field "ts" ev) /. 1e6 in
  let shape =
    match str_field "ph" ev with
    | Some "X" ->
        Printf.sprintf "span %.4f-%.4f s"
          ts
          (ts +. Option.value ~default:0.0 (float_field "dur" ev) /. 1e6)
    | _ -> Printf.sprintf "at %.4f s" ts
  in
  let interesting =
    match Option.bind (member "args" ev) (function Assoc kvs -> Some kvs | _ -> None)
    with
    | None -> []
    | Some kvs ->
        List.filter
          (fun (k, _) ->
            not (List.mem k [ "id"; "evidence"; "routers"; "suspects" ]))
          kvs
  in
  let args =
    match interesting with
    | [] -> ""
    | kvs ->
        "  {"
        ^ String.concat ", "
            (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (to_string v)) kvs)
        ^ "}"
  in
  Printf.sprintf "%-18s %-9s %s%s" name cat shape args

let explain doc =
  match validate doc with
  | Error e -> Error e
  | Ok () -> (
      match events doc with
      | Error e -> Error e
      | Ok evs ->
          let by_id = Hashtbl.create 256 in
          List.iter
            (fun ev ->
              match event_id ev with
              | Some i -> Hashtbl.replace by_id i ev
              | None -> ())
            evs;
          let buf = Buffer.create 1024 in
          let n = ref 0 in
          List.iter
            (fun ev ->
              match verdict_of_event ev with
              | None -> ()
              | Some v ->
                  incr n;
                  Buffer.add_string buf
                    (Printf.sprintf "%.4f s  %s %s%s%s%s\n" v.time v.detector
                       (if v.alarm then "ALARM" else "verdict")
                       (match v.subject with
                       | Some s -> Printf.sprintf "  subject=r%d" s
                       | None -> "")
                       (match v.suspects with
                       | [] -> ""
                       | s ->
                           "  suspects="
                           ^ String.concat "," (List.map string_of_int s))
                       (match v.confidence with
                       | Some c -> Printf.sprintf "  confidence=%.4f" c
                       | None -> ""));
                  if v.detail <> "" then
                    Buffer.add_string buf (Printf.sprintf "  detail: %s\n" v.detail);
                  if v.evidence = [] then
                    Buffer.add_string buf "  (no evidence recorded)\n"
                  else
                    List.iter
                      (fun id ->
                        match Hashtbl.find_opt by_id id with
                        | Some e ->
                            Buffer.add_string buf
                              (Printf.sprintf "  [#%d] %s\n" id (describe_event e))
                        | None ->
                            (* validate guarantees this cannot happen. *)
                            Buffer.add_string buf
                              (Printf.sprintf "  [#%d] <missing>\n" id))
                      v.evidence)
            evs;
          if !n = 0 then Buffer.add_string buf "no verdicts recorded in this trace\n";
          Ok (Buffer.contents buf))

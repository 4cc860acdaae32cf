(* mrdetect report: turn an mrdetect-metrics-v1 document into the
   engine-independent mrdetect-report-v1 form, and render that as a
   self-contained HTML dashboard (inline SVG, no external assets).

   The report schema deliberately normalizes away everything that is
   allowed to differ between the classic and sharded engines or between
   machines: the [engine] self-profiling section, the wall-clock
   [phases], and the [scenario.shards] field all vanish.  What remains —
   scenario, packet conservation, detection outcome, and the always-on
   stats collectors — is byte-identical for every shard count K >= 1 of
   the same scenario (and stable run-to-run for K = 0), which is what
   the report-determinism golden test pins. *)

module J = Telemetry.Export

let schema = "mrdetect-report-v1"

(* --- normalization ---------------------------------------------------- *)

let of_metrics doc =
  match J.member "schema" doc with
  | Some (J.String "mrdetect-metrics-v1") -> (
      let field name =
        match J.member name doc with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "metrics document has no %S section" name)
      in
      let ( let* ) = Result.bind in
      let* scenario = field "scenario" in
      let* conservation = field "conservation" in
      let* detection = field "detection" in
      let* stats = field "stats" in
      if stats = J.Null then
        Error "metrics document has no stats section (re-run with --metrics)"
      else
        let scenario =
          match scenario with
          | J.Assoc kvs ->
              J.Assoc (List.filter (fun (k, _) -> k <> "shards") kvs)
          | other -> other
        in
        Ok
          (J.Assoc
             [ ("schema", J.String schema);
               ("scenario", scenario);
               ("conservation", conservation);
               ("detection", detection);
               ("stats", stats) ]))
  | Some (J.String other) ->
      Error (Printf.sprintf "expected an mrdetect-metrics-v1 document, got %S" other)
  | _ -> Error "not an mrdetect metrics document (no schema field)"

let load path = Result.bind (J.read_file path) of_metrics

(* --- HTML rendering --------------------------------------------------- *)

let escape_html s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fnum f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let ints_of_json j =
  match J.to_list_opt j with
  | None -> []
  | Some xs -> List.filter_map J.to_int xs

let floats_of_json j =
  match J.to_list_opt j with
  | None -> []
  | Some xs -> List.filter_map J.to_float xs

(* A sparkline: per-bucket counts as an SVG polyline, y scaled to the
   series max.  Values and geometry print with %g, so the markup is
   deterministic for identical inputs. *)
let svg_sparkline ?(width = 360) ?(height = 48) counts =
  let n = List.length counts in
  if n = 0 then "<svg width=\"360\" height=\"48\"></svg>"
  else begin
    let vmax = List.fold_left max 1 counts in
    let pt i c =
      let x = float_of_int i *. float_of_int width /. float_of_int (max 1 (n - 1)) in
      let y =
        float_of_int height
        -. (float_of_int c /. float_of_int vmax *. float_of_int (height - 4))
        -. 2.0
      in
      Printf.sprintf "%g,%g" x y
    in
    let points = String.concat " " (List.mapi pt counts) in
    Printf.sprintf
      "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\"><polyline \
       points=\"%s\" fill=\"none\" stroke=\"#2563eb\" stroke-width=\"1.5\"/></svg>"
      width height width height points
  end

(* A histogram: one rect per bucket, height scaled to the max count,
   labelled by its upper edge. *)
let svg_hist ?(width = 360) ?(height = 72) uppers counts =
  let n = List.length counts in
  if n = 0 then "<svg width=\"360\" height=\"72\"></svg>"
  else begin
    let vmax = List.fold_left max 1 counts in
    let bw = float_of_int width /. float_of_int n in
    let rects =
      List.mapi
        (fun i c ->
          let h =
            float_of_int c /. float_of_int vmax *. float_of_int (height - 4)
          in
          let upper =
            match List.nth_opt uppers i with
            | Some u when u = Float.infinity -> "+Inf"
            | Some u -> fnum u
            | None -> ""
          in
          Printf.sprintf
            "<rect x=\"%g\" y=\"%g\" width=\"%g\" height=\"%g\" \
             fill=\"#059669\"><title>le %s: %d</title></rect>"
            (float_of_int i *. bw)
            (float_of_int height -. h)
            (Float.max 1.0 (bw -. 1.0))
            h upper c)
        counts
    in
    Printf.sprintf
      "<svg width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">%s</svg>" width
      height width height
      (String.concat "" rects)
  end

let series_card j =
  let name =
    Option.value ~default:"?"
      (Option.bind (J.member "name" j) J.to_string_opt)
  in
  let res =
    Option.value ~default:0.0 (Option.bind (J.member "resolution" j) J.to_float)
  in
  let counts =
    match J.member "counts" j with Some c -> ints_of_json c | None -> []
  in
  let total = List.fold_left ( + ) 0 counts in
  Printf.sprintf
    "<div class=\"card\"><h3>%s</h3><p>%d events, %s s/bucket</p>%s</div>"
    (escape_html name) total (fnum res)
    (svg_sparkline counts)

let hist_card j =
  let name =
    Option.value ~default:"?"
      (Option.bind (J.member "name" j) J.to_string_opt)
  in
  let get_f key =
    Option.value ~default:0.0 (Option.bind (J.member key j) J.to_float)
  in
  let count = Option.value ~default:0 (Option.bind (J.member "count" j) J.to_int) in
  let counts =
    match J.member "counts" j with Some c -> ints_of_json c | None -> []
  in
  let uppers =
    match J.member "uppers" j with Some u -> floats_of_json u | None -> []
  in
  Printf.sprintf
    "<div class=\"card\"><h3>%s</h3><p>%d samples &middot; p50 %s &middot; p95 \
     %s &middot; p99 %s</p>%s</div>"
    (escape_html name) count
    (fnum (get_f "p50"))
    (fnum (get_f "p95"))
    (fnum (get_f "p99"))
    (svg_hist uppers counts)

let scenario_row (k, v) =
  let text =
    match v with
    | J.String s -> s
    | J.Int i -> string_of_int i
    | J.Float f -> fnum f
    | J.Null -> "&mdash;"
    | other -> J.to_string other
  in
  Printf.sprintf "<tr><th>%s</th><td>%s</td></tr>" (escape_html k)
    (escape_html text)

let kv_table title rows =
  Printf.sprintf "<div class=\"card\"><h3>%s</h3><table>%s</table></div>" title
    (String.concat "" rows)

let links_table stats =
  match Option.bind (J.member "links" stats) J.to_list_opt with
  | None | Some [] -> ""
  | Some links ->
      let row j =
        let g key = Option.value ~default:0 (Option.bind (J.member key j) J.to_int) in
        Printf.sprintf
          "<tr><td>%d&rarr;%d</td><td>%d</td><td>%d</td></tr>"
          (g "src") (g "dst") (g "tx") (g "drops")
      in
      Printf.sprintf
        "<div class=\"card\"><h3>links</h3><table><tr><th>link</th><th>tx</th>\
         <th>drops</th></tr>%s</table></div>"
        (String.concat "" (List.map row links))

let routers_section stats =
  match Option.bind (J.member "routers" stats) J.to_list_opt with
  | None | Some [] -> ""
  | Some routers ->
      let card j =
        let r = Option.value ~default:0 (Option.bind (J.member "router" j) J.to_int) in
        let counts, sums =
          match J.member "queue_depth" j with
          | Some q ->
              ( (match J.member "counts" q with Some c -> ints_of_json c | None -> []),
                match J.member "sums" q with Some s -> floats_of_json s | None -> [] )
          | None -> ([], [])
        in
        (* Queue depth is sampled event-weighted: plot the per-bucket
           mean depth (sum / count), rounded to an int for the sparkline. *)
        let means =
          List.map2
            (fun c s ->
              if c = 0 then 0 else int_of_float (Float.round (s /. float_of_int c)))
            counts sums
        in
        Printf.sprintf
          "<div class=\"card\"><h3>router %d queue depth</h3>%s</div>" r
          (svg_sparkline means)
      in
      String.concat "" (List.map card routers)

let html doc =
  match J.member "schema" doc with
  | Some (J.String s) when s = schema ->
      let stats = Option.value ~default:(J.Assoc []) (J.member "stats" doc) in
      let section name =
        match Option.bind (J.member name stats) J.to_list_opt with
        | Some xs -> xs
        | None -> []
      in
      let scenario_rows =
        match J.member "scenario" doc with
        | Some (J.Assoc kvs) -> List.map scenario_row kvs
        | _ -> []
      in
      let assoc_rows name =
        match J.member name doc with
        | Some (J.Assoc kvs) -> List.map scenario_row kvs
        | _ -> []
      in
      let ctrl_rows =
        match J.member "ctrl" stats with
        | Some (J.Assoc kvs) -> List.map scenario_row kvs
        | _ -> []
      in
      let body =
        String.concat "\n"
          ([ kv_table "scenario" scenario_rows;
             kv_table "conservation" (assoc_rows "conservation");
             kv_table "detection" (assoc_rows "detection");
             kv_table "control channel" ctrl_rows ]
          @ List.map series_card (section "series")
          @ List.map hist_card (section "hists")
          @ [ links_table stats; routers_section stats ])
      in
      Ok
        (Printf.sprintf
           "<!doctype html>\n\
            <html><head><meta charset=\"utf-8\"><title>mrdetect report</title>\n\
            <style>\n\
            body{font:14px system-ui,sans-serif;margin:24px;background:#f8fafc;\
            color:#0f172a}\n\
            h1{font-size:20px}\n\
            .grid{display:flex;flex-wrap:wrap;gap:12px}\n\
            .card{background:#fff;border:1px solid #e2e8f0;border-radius:8px;\
            padding:12px 16px}\n\
            .card h3{margin:0 0 4px;font-size:13px;font-weight:600}\n\
            .card p{margin:0 0 6px;color:#475569;font-size:12px}\n\
            table{border-collapse:collapse;font-size:12px}\n\
            th,td{text-align:left;padding:2px 10px 2px 0;color:#334155}\n\
            th{font-weight:600}\n\
            </style></head>\n\
            <body><h1>mrdetect report</h1>\n\
            <div class=\"grid\">\n%s\n</div></body></html>\n"
           body)
  | _ -> Error "not an mrdetect-report-v1 document"

let html_of_metrics doc = Result.bind (of_metrics doc) html

type 'kind view = {
  clock : Sim.fbox;
  router : int;
  mutable next : int;
  mutable kind : 'kind;
  mutable pkt : Packet.t;
  mutable arg : float;
}

type iface_view = Iface.event view
type router_view = Router.event view

type verdict = Telemetry.Span.verdict

type fault_record = {
  time : float;
  kind : string;
  routers : int list;
  detail : string;
}

(* A journal entry is a slot of scalars, refilled in place once the
   ring has wrapped: it names no packet and no listener's view, so the
   journal keeps nothing of the forwarding plane alive.  Its two floats
   sit in a float-only record, where refilling them boxes nothing. *)
type stamp = {
  mutable at : float;
  mutable arg : float;  (* a Node entry's delay, or its fragment count *)
}

type layer = Link | Node | Verdict of verdict | Fault of fault_record

type entry = {
  stamp : stamp;
  mutable layer : layer;
  mutable link : Iface.event;  (* a Link entry's kind *)
  mutable node : Router.event;  (* a Node entry's kind *)
  mutable router : int;
  mutable next : int;
  (* The packet's content, as {!describe} and the JSONL export read it. *)
  mutable uid : int;
  mutable src : int;
  mutable dst : int;
  mutable flow : int;
  mutable size : int;
  mutable proto : Packet.proto;
}

type t = {
  (* Slots are allocated as the ring fills (see [slot]), so creating a
     probe allocates none of them. *)
  journal : entry Telemetry.Journal.t;
  (* Verdicts are rare and load-bearing (the robustness oracle scores
     them after the run), so they are retained here in full even when
     the bounded journal has long since evicted them. *)
  mutable verdicts_rev : verdict list;
  (* Span bridge (optional).  A traced packet's pending per-hop span
     windows live on the packet itself ([Packet.spans]): a packet
     occupies at most one (router, next) edge at a time, and multicast
     clones and fragments have spans of their own, so branches never
     share a window. *)
  tracer : Telemetry.Span.t option;
  named_tracks : (int, unit) Hashtbl.t;
  (* Always-on stats collector (wired by [Net.set_probe]), fed by every
     hook below: the probe's one set of packet counts. *)
  mutable stats : Stats.t option;
  (* Faults count here, not in [stats]: a probe with no network scores
     faults too. *)
  mutable faults : int;
}

(* --- journal slots --- *)

let blank () =
  { stamp = { at = 0.0; arg = 0.0 }; layer = Link; link = Iface.Enqueued;
    node = Router.No_route; router = -1; next = -1; uid = 0; src = 0; dst = 0; flow = 0;
    size = 0; proto = Packet.Udp }

let fill_packet e (p : Packet.t) =
  e.uid <- p.Packet.uid;
  e.src <- p.Packet.src;
  e.dst <- p.Packet.dst;
  e.flow <- p.Packet.flow;
  e.size <- p.Packet.size;
  e.proto <- p.Packet.proto

let fill e layer (v : _ view) =
  e.stamp.at <- v.clock.f;
  e.stamp.arg <- v.arg;
  e.layer <- layer;
  e.router <- v.router;
  e.next <- v.next;
  fill_packet e v.pkt

let fill_iface e (v : iface_view) =
  fill e Link v;
  e.link <- v.kind

let fill_router e (v : router_view) =
  fill e Node v;
  e.node <- v.kind

(* The slot the next record fills: the one the ring is about to evict,
   or a fresh one while it is still filling. *)
let slot t =
  if Telemetry.Journal.full t.journal then Telemetry.Journal.evictee t.journal
  else blank ()

let create ?(journal_capacity = 65536) ?tracer () =
  { journal = Telemetry.Journal.create ~capacity:journal_capacity ();
    verdicts_rev = [];
    tracer;
    named_tracks = Hashtbl.create 16;
    stats = None;
    faults = 0 }

let journal t = t.journal
let set_stats t stats = t.stats <- stats
let stats t = t.stats

(* Name the (netsim, router) track on first use. *)
let net_track t sp router =
  if not (Hashtbl.mem t.named_tracks router) then begin
    Hashtbl.add t.named_tracks router ();
    Telemetry.Span.set_thread sp ~pid:Telemetry.Span.network_pid ~tid:router
      (Printf.sprintf "r%d" router)
  end;
  router

let on_originate t (pkt : Packet.t) =
  (match t.stats with Some st -> Stats.on_originate st pkt | None -> ());
  match t.tracer with
  | None -> ()
  | Some sp -> (
      match Telemetry.Span.new_trace sp with
      | None -> ()
      | Some trace ->
          pkt.Packet.trace <- trace;
          let tid = net_track t sp pkt.Packet.src in
          ignore
            (Telemetry.Span.instant sp ~trace ~name:"originate" ~cat:"packet"
               ~pid:Telemetry.Span.network_pid ~tid ~time:pkt.Packet.created.f
               ~routers:[ pkt.Packet.src ]
               ~args:
                 [ ("pkt", Telemetry.Export.Int pkt.Packet.uid);
                   ("dst", Telemetry.Export.Int pkt.Packet.dst);
                   ("flow", Telemetry.Export.Int pkt.Packet.flow);
                   ("size", Telemetry.Export.Int pkt.Packet.size) ]
               ()))

(* Per-hop spans for a traced packet: enqueue->transmit ("queue") then
   transmit->deliver ("transmit"); drops become instants and clear any
   pending window so the tables never leak.  Drop instants are recorded
   for {e every} packet, traced or not: benign congestion / RED / link
   losses are exactly the anomalies the robustness oracle and
   [mrdetect trace explain] must tell apart from malice, so they never
   ride on the sampling coin — only the routine hop spans do. *)
let trace_iface t sp (v : iface_view) =
  let pkt = v.pkt and time = v.clock.f and router = v.router and next = v.next in
  let trace = pkt.Packet.trace and spans = pkt.Packet.spans in
  let pid = Telemetry.Span.network_pid in
  let pkt_args () =
    [ ("pkt", Telemetry.Export.Int pkt.Packet.uid);
      ("next", Telemetry.Export.Int next) ]
  in
  let drop cause =
    let tid = net_track t sp router in
    spans.q_start <- -1.0;
    spans.tx_start <- -1.0;
    ignore
      (Telemetry.Span.instant sp
         ?trace:(if trace <> 0 then Some trace else None)
         ~name:("drop " ^ cause) ~cat:"drop" ~pid ~tid ~time
         ~routers:[ router; next ]
         ~args:(("cause", Telemetry.Export.String cause) :: pkt_args ())
         ())
  in
  match v.kind with
  | Iface.Drop_congestion -> drop "congestion"
  | Iface.Drop_red_early -> drop "red_early"
  | Iface.Drop_link_down -> drop "link_down"
  | Iface.Drop_corrupted -> drop "corrupted"
  | Iface.Enqueued | Iface.Transmit_start | Iface.Delivered when trace = 0 -> ()
  | Iface.Enqueued -> spans.q_start <- time
  | Iface.Transmit_start ->
      let tid = net_track t sp router in
      let start = spans.q_start in
      if start >= 0.0 then begin
        spans.q_start <- -1.0;
        ignore
          (Telemetry.Span.hop_span sp ~trace ~name:"queue" ~pid ~tid ~start
             ~finish:time ~router ~next ~pkt:pkt.Packet.uid)
      end;
      spans.tx_start <- time
  | Iface.Delivered ->
      let tid = net_track t sp router in
      let start = spans.tx_start in
      if start >= 0.0 then begin
        spans.tx_start <- -1.0;
        ignore
          (Telemetry.Span.hop_span sp ~trace ~name:"transmit" ~pid ~tid ~start
             ~finish:time ~router ~next ~pkt:pkt.Packet.uid)
      end

let journal_view t fill v =
  let e = slot t in
  fill e v;
  Telemetry.Journal.record t.journal e

let on_iface t (v : iface_view) =
  (match t.stats with
  | Some st -> Stats.on_iface st ~clock:v.clock ~router:v.router v.kind
  | None -> ());
  journal_view t fill_iface v;
  match t.tracer with Some sp -> trace_iface t sp v | None -> ()

let trace_router t sp (v : router_view) =
  let pkt = v.pkt and time = v.clock.f and router = v.router in
  let trace = pkt.Packet.trace in
  let name, cat =
    match v.kind with
    | Router.Malicious_drop -> ("malicious drop", "malice")
    | Router.Malicious_modify -> ("malicious modify", "malice")
    | Router.Malicious_delay -> ("malicious delay", "malice")
    | Router.Fabricated -> ("fabricate", "malice")
    | Router.Fragmented -> ("fragment", "hop")
    | Router.No_route -> ("drop no_route", "drop")
    | Router.Ttl_expired -> ("drop ttl_expired", "drop")
    | Router.Delivered_local -> ("deliver", "packet")
  in
  (* Anomalies (malice and drops) are always recorded; routine
     hop/delivery events only for sampled packets. *)
  if trace <> 0 || cat = "malice" || cat = "drop" then begin
    let pid = Telemetry.Span.network_pid in
    let tid = net_track t sp router in
    let args =
      ("pkt", Telemetry.Export.Int pkt.Packet.uid)
      ::
      (match v.kind with
      | Router.Delivered_local ->
          [ ("latency", Telemetry.Export.Float (time -. pkt.Packet.created.f)) ]
      | Router.Malicious_delay -> [ ("delay", Telemetry.Export.Float v.arg) ]
      | Router.Fragmented -> [ ("fragments", Telemetry.Export.Int (int_of_float v.arg)) ]
      | _ -> [])
    in
    ignore
      (Telemetry.Span.instant sp
         ?trace:(if trace <> 0 then Some trace else None)
         ~name ~cat ~pid ~tid ~time ~routers:[ router ] ~args ())
  end

let on_router t (v : router_view) =
  (match t.stats with
  | Some st -> Stats.on_router st ~clock:v.clock ~router:v.router v.kind v.pkt v.arg
  | None -> ());
  journal_view t fill_router v;
  match t.tracer with Some sp -> trace_router t sp v | None -> ()

(* A verdict or fault entry rides in the same ring, so the journal
   keeps the order of all three layers. *)
let record_note t ~time layer =
  let e = slot t in
  e.stamp.at <- time;
  e.layer <- layer;
  Telemetry.Journal.record t.journal e

let record_verdict t ~time ~detector ?subject ?(suspects = []) ?confidence ~alarm
    ?(detail = "") ?(evidence = []) () =
  let v =
    { Telemetry.Span.time; detector; subject; suspects; confidence; alarm; detail;
      evidence }
  in
  t.verdicts_rev <- v :: t.verdicts_rev;
  (match t.stats with
  | Some st -> Stats.on_verdict st ~time ~detector ~alarm
  | None -> ());
  record_note t ~time (Verdict v);
  match t.tracer with
  | None -> ()
  | Some sp -> ignore (Telemetry.Span.verdict sp v)

let verdicts t = List.rev t.verdicts_rev

let first_alarm_time t =
  List.find_opt (fun (v : verdict) -> v.alarm) (verdicts t)
  |> Option.map (fun (v : verdict) -> v.time)
let faults_recorded t = t.faults

let record_fault t ~time ~kind ?(routers = []) ?(detail = "") () =
  t.faults <- t.faults + 1;
  (match t.stats with Some st -> Stats.on_fault st ~time | None -> ());
  record_note t ~time (Fault { time; kind; routers; detail });
  match t.tracer with
  | None -> ()
  | Some sp ->
      let pid = Telemetry.Span.detector_pid in
      let tid = Telemetry.Span.thread sp ~pid "faults" in
      let args =
        ("kind", Telemetry.Export.String kind)
        :: (if detail = "" then []
            else [ ("detail", Telemetry.Export.String detail) ])
      in
      ignore
        (Telemetry.Span.instant sp ~name:("fault " ^ kind) ~cat:"fault" ~pid ~tid
           ~time ~routers ~args ())

(* Detector-side span helpers: record on the "detectors" process, one
   track per [track] name.  No-ops (returning [None]) without a tracer,
   so protocol code can call them unconditionally. *)

let trace_span t ~track ~name ?cat ~start ~finish ?routers ?args () =
  (* Round spans double as the always-on round-duration samples: the
     stats feed runs with or without a tracer attached. *)
  (match (t.stats, cat) with
  | Some st, Some "round" -> Stats.on_round st ~track ~start ~finish
  | _ -> ());
  match t.tracer with
  | None -> None
  | Some sp ->
      let pid = Telemetry.Span.detector_pid in
      let tid = Telemetry.Span.thread sp ~pid track in
      Some
        (Telemetry.Span.span sp ~name ?cat ~pid ~tid ~start ~finish ?routers ?args
           ())

let trace_instant t ~track ~name ?cat ~time ?routers ?args () =
  match t.tracer with
  | None -> None
  | Some sp ->
      let pid = Telemetry.Span.detector_pid in
      let tid = Telemetry.Span.thread sp ~pid track in
      Some (Telemetry.Span.instant sp ~name ?cat ~pid ~tid ~time ?routers ?args ())

(* --- conservation --- *)

type conservation = {
  total_injected : int;   (* originate + fabricate + fragments *)
  total_delivered : int;
  total_dropped : int;    (* all causes *)
  total_fragmented : int; (* originals replaced by fragments *)
  in_flight : int;
}

let conservation t =
  match t.stats with
  | None ->
      { total_injected = 0; total_delivered = 0; total_dropped = 0;
        total_fragmented = 0; in_flight = 0 }
  | Some st ->
      let total = Telemetry.Timeseries.total_count in
      let total_injected =
        total (Stats.injected st) + Stats.fabricated st + Stats.fragments_created st
      in
      let total_delivered = total (Stats.delivered st) in
      let total_dropped = total (Stats.dropped st) in
      let total_fragmented = Stats.fragmented st in
      { total_injected; total_delivered; total_dropped; total_fragmented;
        in_flight =
          total_injected - total_delivered - total_dropped - total_fragmented }

(* --- formatting: one renderer over the slot --- *)

let link_name = function
  | Iface.Enqueued -> "enqueue"
  | Iface.Drop_congestion -> "DROP-congestion"
  | Iface.Drop_red_early -> "DROP-red"
  | Iface.Drop_link_down -> "DROP-link-down"
  | Iface.Drop_corrupted -> "DROP-corrupted"
  | Iface.Transmit_start -> "transmit"
  | Iface.Delivered -> "deliver"

let node_name e =
  match e.node with
  | Router.Malicious_drop -> "MALICIOUS-drop"
  | Router.Malicious_modify -> "MALICIOUS-modify"
  | Router.Malicious_delay -> Printf.sprintf "MALICIOUS-delay(%.3fs)" e.stamp.arg
  | Router.Fabricated -> "MALICIOUS-fabricate"
  | Router.Fragmented -> Printf.sprintf "fragment(x%d)" (int_of_float e.stamp.arg)
  | Router.No_route -> "no-route"
  | Router.Ttl_expired -> "ttl-expired"
  | Router.Delivered_local -> "local-deliver"

let describe_packet e =
  let proto =
    match e.proto with
    | Packet.Udp -> "udp"
    | Packet.Tcp h ->
        Printf.sprintf "tcp seq=%d ack=%d%s%s" h.Packet.seq h.Packet.ack
          (if h.Packet.syn then " SYN" else "")
          (if h.Packet.fin then " FIN" else "")
    | Packet.Ping s -> Printf.sprintf "ping %d" s
    | Packet.Pong s -> Printf.sprintf "pong %d" s
  in
  Printf.sprintf "#%d %d->%d flow=%d %dB %s" e.uid e.src e.dst e.flow e.size proto

let describe e =
  match e.layer with
  | Link ->
      Printf.sprintf "%.4f r%d->r%d %s %s" e.stamp.at e.router e.next (link_name e.link)
        (describe_packet e)
  | Node ->
      Printf.sprintf "%.4f r%d %s %s" e.stamp.at e.router (node_name e)
        (describe_packet e)
  | Verdict { time; detector; suspects; alarm; _ } ->
      Printf.sprintf "%.4f %s %s%s" time detector
        (if alarm then "ALARM" else "verdict")
        (match suspects with
        | [] -> ""
        | s -> " suspects=" ^ String.concat "," (List.map string_of_int s))
  | Fault { time; kind; routers; detail } ->
      Printf.sprintf "%.4f FAULT-%s%s%s" time kind
        (match routers with
        | [] -> ""
        | rs -> " r" ^ String.concat ",r" (List.map string_of_int rs))
        (if detail = "" then "" else " " ^ detail)

let describe_iface v =
  let e = blank () in
  fill_iface e v;
  describe e

let describe_router v =
  let e = blank () in
  fill_router e v;
  describe e

(* --- JSONL export --- *)

let json_of_entry e =
  let open Telemetry.Export in
  let pkt () =
    [ ( "pkt",
        Assoc
          [ ("uid", Int e.uid); ("src", Int e.src); ("dst", Int e.dst);
            ("flow", Int e.flow); ("size", Int e.size) ] ) ]
  in
  let fields =
    match e.layer with
    | Link ->
        [ ("event", String (link_name e.link));
          ("layer", String "link");
          ("router", Int e.router);
          ("next", Int e.next) ]
        @ pkt ()
    | Node ->
        [ ("event", String (node_name e));
          ("layer", String "router");
          ("router", Int e.router) ]
        @ pkt ()
    | Verdict { detector; subject; suspects; confidence; alarm; detail; _ } ->
        [ ("event", String "verdict");
          ("layer", String "detector");
          ("detector", String detector) ]
        @ (match subject with Some s -> [ ("router", Int s) ] | None -> [])
        @ [ ("suspects", List (List.map (fun s -> Int s) suspects)) ]
        @ (match confidence with
          | Some c -> [ ("confidence", Float c) ]
          | None -> [])
        @ [ ("alarm", Bool alarm) ]
        @ (if detail = "" then [] else [ ("detail", String detail) ])
    | Fault { kind; routers; detail; _ } ->
        [ ("event", String ("fault-" ^ kind));
          ("layer", String "fault");
          ("routers", List (List.map (fun r -> Int r) routers)) ]
        @ if detail = "" then [] else [ ("detail", String detail) ]
  in
  Assoc (("time", Float e.stamp.at) :: fields)

let write_journal t oc =
  Telemetry.Journal.iter t.journal (fun e ->
      Telemetry.Export.to_channel oc (json_of_entry e);
      output_char oc '\n')

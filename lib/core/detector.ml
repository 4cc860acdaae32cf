type env = {
  net : Netsim.Net.t;
  rt : Topology.Routing.t;
  graph : Topology.Graph.t;
  probe : Netsim.Probe.t option;
  ctrl : Ctrl.t option;
  retry : Ctrl.retry option;
  byz : Byz.t option;
  skew : (reporter:int -> float) option;
  attacker : int option;
  duration : float;
  seed : int;
}

type verdict = {
  time : float;
  suspects : int list;
  detail : string;
}

module type S = sig
  type t

  val name : string
  val doc : string
  val init : env -> t
  val verdicts : t -> verdict list
  val report : t -> unit
end

type detector = (module S)

type instance = Instance : (module S with type t = 'a) * 'a -> instance

let registry : (string, detector) Hashtbl.t = Hashtbl.create 8

let register (module M : S) = Hashtbl.replace registry M.name (module M : S)
let find name = Hashtbl.find_opt registry name

let names () =
  Hashtbl.fold (fun name _ acc -> name :: acc) registry []
  |> List.sort String.compare

let doc_of (module M : S) = M.doc
let name_of (module M : S) = M.name

let init (module M : S) env = Instance ((module M), M.init env)
let instance_name (Instance ((module M), _)) = M.name
let verdicts (Instance ((module M), t)) = M.verdicts t
let report (Instance ((module M), t)) = M.report t

type counter = { mutable c : int }
type gauge = { mutable g : float }

type sample =
  | Counter_sample of int
  | Gauge_sample of float
  | Histogram_sample of Hist.t

type kind = C of counter | G of gauge | H of Hist.t

type series = {
  name : string;
  help : string;
  labels : (string * string) list;
  kind : kind;
}

type t = { mutable series_rev : series list }

let create () = { series_rev = [] }

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

(* Registration is the cold path: a linear scan keeps re-registration of
   the same (name, labels) series idempotent, which is what makes label
   families cheap to use from per-entity code. *)
let find t name labels =
  List.find_opt (fun s -> s.name = name && s.labels = labels) t.series_rev

let register t ~name ~help ~labels ~fresh ~cast =
  let labels = normalize_labels labels in
  match find t name labels with
  | Some s -> cast s.kind
  | None ->
      let kind = fresh () in
      t.series_rev <- { name; help; labels; kind } :: t.series_rev;
      cast kind

let counter t ?(help = "") ?(labels = []) name =
  register t ~name ~help ~labels
    ~fresh:(fun () -> C { c = 0 })
    ~cast:(function
      | C c -> c
      | G _ | H _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter"))

let gauge t ?(help = "") ?(labels = []) name =
  register t ~name ~help ~labels
    ~fresh:(fun () -> G { g = 0.0 })
    ~cast:(function
      | G g -> g
      | C _ | H _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge"))

let histogram t ?(help = "") ?(labels = []) ?buckets ?min_exp name =
  register t ~name ~help ~labels
    ~fresh:(fun () -> H (Hist.create ?buckets ?min_exp ()))
    ~cast:(function
      | H h -> h
      | C _ | G _ ->
          invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram"))

let inc c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let counter_value c = c.c

let set g v = g.g <- v
let add_gauge g v = g.g <- g.g +. v
let gauge_value g = g.g

let snapshot_series s =
  let sample =
    match s.kind with
    | C c -> Counter_sample c.c
    | G g -> Gauge_sample g.g
    | H h -> Histogram_sample (Hist.copy h)
  in
  (s.name, s.help, s.labels, sample)

let snapshot t = List.rev_map snapshot_series t.series_rev

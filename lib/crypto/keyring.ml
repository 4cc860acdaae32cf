type t = {
  n : int;
  seed : string;
  sign_keys : Siphash.key array;
  (* Lazily derived per-pair state, so per-packet operations never
     re-run string formatting + FNV key expansion: *)
  pair_cache : (int, Siphash.key) Hashtbl.t;       (* lo * n + hi *)
  mac_cache : (int, Sha256.hmac_key) Hashtbl.t;    (* ipad/opad midstates *)
}

type signature = int64

let create ?(seed = "detecting-malicious-routers") ~n () =
  if n <= 0 then invalid_arg "Keyring.create: n must be positive";
  { n;
    seed;
    sign_keys =
      Array.init n (fun id ->
          Siphash.key_of_string (Printf.sprintf "%s|sign|%d" seed id));
    pair_cache = Hashtbl.create 64;
    mac_cache = Hashtbl.create 64 }

let size t = t.n

let check_id t id name =
  if id < 0 || id >= t.n then
    invalid_arg (Printf.sprintf "Keyring.%s: router id %d outside [0,%d)" name id t.n)

let pairwise t a b =
  check_id t a "pairwise";
  check_id t b "pairwise";
  let lo = min a b and hi = max a b in
  let slot = (lo * t.n) + hi in
  match Hashtbl.find_opt t.pair_cache slot with
  | Some k -> k
  | None ->
      let k = Siphash.key_of_string (Printf.sprintf "%s|pair|%d|%d" t.seed lo hi) in
      Hashtbl.add t.pair_cache slot k;
      k

let signing_key t id =
  check_id t id "signing_key";
  Array.unsafe_get t.sign_keys id

let sign t ~signer msg = Siphash.hash (signing_key t signer) msg
let verify t ~signer msg tag = Int64.equal (sign t ~signer msg) tag
let sign_words t ~signer words = Siphash.hash_int64s (signing_key t signer) words
let verify_words t ~signer words tag = Int64.equal (sign_words t ~signer words) tag

let mac_key t a b =
  check_id t a "mac";
  check_id t b "mac";
  let lo = min a b and hi = max a b in
  let slot = (lo * t.n) + hi in
  match Hashtbl.find_opt t.mac_cache slot with
  | Some hk -> hk
  | None ->
      let hk = Sha256.hmac_key ~key:(Printf.sprintf "%s|mac|%d|%d" t.seed lo hi) in
      Hashtbl.add t.mac_cache slot hk;
      hk

let mac t a b msg = Sha256.hmac_with (mac_key t a b) msg
let mac64 t a b msg = Sha256.hmac64 (mac_key t a b) msg

let verify_mac t a b msg tag = String.equal (mac t a b msg) tag

let forge_attempt = 0xdeadbeefdeadbeefL

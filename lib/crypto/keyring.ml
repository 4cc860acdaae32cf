(* One SipHash signing key per router id. *)
type t = Siphash.key array

type signature = int64

let create ?(seed = "detecting-malicious-routers") ~n () =
  if n <= 0 then invalid_arg "Keyring.create: n must be positive";
  Array.init n (fun id -> Siphash.key_of_string (Printf.sprintf "%s|sign|%d" seed id))

let signing_key t id =
  if id < 0 || id >= Array.length t then
    invalid_arg
      (Printf.sprintf "Keyring.signing_key: router id %d outside [0,%d)" id (Array.length t));
  Array.unsafe_get t id

let sign_words t ~signer words = Siphash.hash_int64s (signing_key t signer) words
let verify_words t ~signer words tag = Int64.equal (sign_words t ~signer words) tag

let forge_attempt = 0xdeadbeefdeadbeefL

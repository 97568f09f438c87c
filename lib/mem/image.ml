module Rng = Vessel_engine.Rng

type t = {
  name : string;
  pie : bool;
  text : bytes;
  data_size : int;
  bss_size : int;
  entry : int;
  needed : string list;
}

let wrpkru_opcode = "\x0f\x01\xef"

let contains_wrpkru_at b i =
  i + 2 < Bytes.length b
  && Bytes.get b i = '\x0f'
  && Bytes.get b (i + 1) = '\x01'
  && Bytes.get b (i + 2) = '\xef'

let make ?(pie = true) ?(data_size = 65536) ?(bss_size = 16384) ?(entry = 0)
    ?(needed = []) ?(embed_wrpkru_at = []) ~name ~text_size rng =
  if text_size <= 0 then invalid_arg "Image.make: text_size must be positive";
  if entry < 0 || entry >= text_size then
    invalid_arg "Image.make: entry outside text";
  let text = Bytes.create text_size in
  for i = 0 to text_size - 1 do
    Bytes.set text i (Char.chr (Rng.int rng 256))
  done;
  (* Scrub accidental WRPKRU sequences so only deliberate embeds remain. *)
  for i = 0 to text_size - 1 do
    if contains_wrpkru_at text i then Bytes.set text i '\x90'
  done;
  List.iter
    (fun off ->
      if off < 0 || off + 3 > text_size then
        invalid_arg
          (Printf.sprintf "Image.make: WRPKRU offset %d outside text" off);
      Bytes.blit_string wrpkru_opcode 0 text off 3)
    embed_wrpkru_at;
  { name; pie; text; data_size; bss_size; entry; needed }

let text_size t = Bytes.length t.text

let library ~name ~text_size rng =
  make ~name ~text_size ~data_size:Vessel_hw.Page.size ~bss_size:0 rng

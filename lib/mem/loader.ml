module Hw = Vessel_hw
module Page = Hw.Page
module Page_table = Hw.Page_table
module Rng = Vessel_engine.Rng

type loaded = {
  slot : int;
  image : Image.t;
  text_base : Addr.t;
  data_base : Addr.t;
  bss_base : Addr.t;
  entry_addr : Addr.t;
  libraries : (string * Addr.t) list;
  aslr_slide : int;
  argv_addr : Addr.t;
}

type error = Rejected of string | No_text_space | No_data_space

let pp_error fmt = function
  | Rejected msg -> Format.fprintf fmt "rejected: %s" msg
  | No_text_space -> Format.fprintf fmt "slot text region exhausted"
  | No_data_space -> Format.fprintf fmt "slot data region exhausted"

type t = {
  smas : Smas.t;
  slot : int;
  text_region : Region.t;
  data_region : Region.t;
  mutable text_cursor : Addr.t;
  mutable data_cursor : Addr.t;
  mutable program : loaded option;
  mutable heap : Allocator.t option;
  aslr_slide : int;
}

let create smas ~slot ?(aslr = true) ?slide rng =
  let layout = Smas.layout smas in
  let text_region = Layout.slot_text layout slot in
  let data_region = Layout.slot_data layout slot in
  (* The slide stays within the first quarter of each region so even large
     images fit behind it. Page granularity, as on Linux. *)
  let max_slide_pages = text_region.Region.len / 4 / Page.size in
  let aslr_slide =
    match slide with
    | Some s ->
        if s < 0 || s mod Page.size <> 0 || s >= text_region.Region.len / 4
        then invalid_arg "Loader.create: bad forced slide";
        s
    | None ->
        if aslr && max_slide_pages > 0 then
          Rng.int rng max_slide_pages * Page.size
        else 0
  in
  {
    smas;
    slot;
    text_region;
    data_region;
    text_cursor = text_region.Region.base + aslr_slide;
    data_cursor = data_region.Region.base + aslr_slide;
    program = None;
    heap = None;
    aslr_slide;
  }

let page_ceil n = (n + Page.size - 1) / Page.size * Page.size

(* Map [img]'s text at the cursor with the staged W^X discipline: pages
   start read-only (not executable, not writable), the bytes are copied
   and inspected, and only clean code is flipped to executable-only. *)
let install_text t (img : Image.t) =
  match Inspect.validate_image img with
  | Error msg -> Error (Rejected msg)
  | Ok () ->
      let len = page_ceil (Image.text_size img) in
      if t.text_cursor + len > Region.end_ t.text_region then Error No_text_space
      else begin
        let base = t.text_cursor in
        let pt = Smas.page_table t.smas in
        Page_table.map_range pt ~addr:base ~len ~prot:Page.prot_r
          ~pkey:t.text_region.Region.pkey;
        Smas.priv_write t.smas ~addr:base img.Image.text;
        (* Re-inspect the staged bytes (defends against TOCTOU on the image
           object) before granting execute. *)
        (match Inspect.validate (Smas.priv_read t.smas ~addr:base ~len:(Image.text_size img)) with
        | Error _ ->
            Page_table.unmap_range pt ~addr:base ~len;
            Error (Rejected (img.Image.name ^ ": staged text failed inspection"))
        | Ok () ->
            Page_table.protect_range pt ~addr:base ~len ~prot:Page.prot_x;
            t.text_cursor <- base + len;
            Ok base)
      end

let write_argv t ~addr args =
  let block = String.concat "\000" args ^ "\000" in
  Smas.priv_write t.smas ~addr (Bytes.of_string block);
  String.length block

let load_program t ?(args = []) ?(libraries = []) img =
  if t.program <> None then invalid_arg "Loader.load_program: slot already loaded";
  match install_text t img with
  | Error e -> Error e
  | Ok text_base -> (
      (* Libraries go through the identical inspection + W^X path. *)
      let rec load_libs acc = function
        | [] -> Ok (List.rev acc)
        | lib :: rest -> (
            match install_text t lib with
            | Error e -> Error e
            | Ok base -> load_libs ((lib.Image.name, base) :: acc) rest)
      in
      match load_libs [] libraries with
      | Error e -> Error e
      | Ok libs ->
          let data_len = page_ceil img.Image.data_size in
          let bss_len = page_ceil img.Image.bss_size in
          let argv_len = Page.size in
          if t.data_cursor + data_len + bss_len + argv_len > Region.end_ t.data_region
          then Error No_data_space
          else begin
            Smas.attach_slot_data t.smas t.slot;
            let data_base = t.data_cursor in
            let bss_base = data_base + data_len in
            let argv_addr = bss_base + bss_len in
            ignore (write_argv t ~addr:argv_addr args);
            t.data_cursor <- argv_addr + argv_len;
            let heap_reserve = t.data_cursor - t.data_region.Region.base in
            t.heap <- Some (Allocator.create ~reserve:heap_reserve t.data_region);
            let loaded =
              {
                slot = t.slot;
                image = img;
                text_base;
                data_base;
                bss_base;
                entry_addr = text_base + img.Image.entry;
                libraries = libs;
                aslr_slide = t.aslr_slide;
                argv_addr;
              }
            in
            t.program <- Some loaded;
            Ok loaded
          end)

let dlopen t img =
  if t.program = None then invalid_arg "Loader.dlopen: no program loaded";
  install_text t img

let allocator t =
  match t.heap with
  | Some h -> h
  | None -> invalid_arg "Loader.allocator: no program loaded yet"

let text_used t = t.text_cursor - t.text_region.Region.base
let data_used t = t.data_cursor - t.data_region.Region.base
let slide t = t.aslr_slide

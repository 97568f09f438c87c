(* Tests for the section-5.3 semantics: uProcess fork rejection and
   clone into a second SMAS. *)

module Hw = Vessel_hw
module Mem = Vessel_mem
module U = Vessel_uprocess
module Sim = Vessel_engine.Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_machine ?(cores = 4) ?(seed = 17) () =
  let sim = Sim.create ~seed () in
  (sim, Hw.Machine.create ~cores sim)

(* ------------------------------------------------------------------ *)
(* fork / clone *)

let test_fork_rejected () =
  let sim, machine = mk_machine () in
  let mgr = U.Manager.create ~slots:4 ~machine () in
  let image = Mem.Image.make ~name:"app" ~text_size:8192 (Sim.rng sim) in
  let u = Result.get_ok (U.Manager.create_uprocess mgr ~name:"app" ~image ()) in
  match U.Manager.fork_uprocess mgr u with
  | Error `Address_conflict -> ()
  | Ok _ -> Alcotest.fail "fork inside a domain must be rejected"

let test_clone_identical_addresses () =
  let sim, machine = mk_machine () in
  let src = U.Manager.create ~slots:4 ~machine () in
  let dst = U.Manager.create ~slots:4 ~machine () in
  let image = Mem.Image.make ~name:"app" ~text_size:8192 (Sim.rng sim) in
  let u =
    Result.get_ok
      (U.Manager.create_uprocess src ~name:"app" ~image
         ~args:[ "app"; "--x" ] ())
  in
  match U.Manager.clone_uprocess src u ~dst with
  | Error e -> Alcotest.failf "clone failed: %a" U.Manager.pp_create_error e
  | Ok clone ->
      check_int "same slot" (U.Uprocess.slot u) (U.Uprocess.slot clone);
      let l = Option.get (U.Uprocess.loaded u) in
      let l' = Option.get (U.Uprocess.loaded clone) in
      check_int "same text base" l.Mem.Loader.text_base l'.Mem.Loader.text_base;
      check_int "same data base" l.Mem.Loader.data_base l'.Mem.Loader.data_base;
      check_int "same entry" l.Mem.Loader.entry_addr l'.Mem.Loader.entry_addr;
      check_int "same slide" l.Mem.Loader.aslr_slide l'.Mem.Loader.aslr_slide

let test_clone_synchronizes_data () =
  let sim, machine = mk_machine () in
  let src = U.Manager.create ~slots:2 ~machine () in
  let dst = U.Manager.create ~slots:2 ~machine () in
  let image = Mem.Image.make ~name:"app" ~text_size:4096 (Sim.rng sim) in
  let u = Result.get_ok (U.Manager.create_uprocess src ~name:"app" ~image ()) in
  (* The parent writes into its globals and allocates on its heap. *)
  let l = Option.get (U.Uprocess.loaded u) in
  let pkru = Mem.Smas.pkru_for_slot (U.Manager.smas src) 0 in
  (match
     Mem.Smas.write (U.Manager.smas src) ~pkru ~addr:l.Mem.Loader.data_base
       (Bytes.of_string "shared-state")
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "parent write failed");
  let heap = Mem.Loader.allocator (Option.get (U.Manager.loader src ~slot:0)) in
  let p = Result.get_ok (Mem.Allocator.malloc heap 64) in
  (match
     Mem.Smas.write (U.Manager.smas src) ~pkru ~addr:p (Bytes.of_string "heap!")
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "heap write failed");
  match U.Manager.clone_uprocess src u ~dst with
  | Error e -> Alcotest.failf "clone failed: %a" U.Manager.pp_create_error e
  | Ok _clone ->
      (* The child sees the parent's bytes at the same addresses — in ITS
         own SMAS. *)
      let b =
        Mem.Smas.priv_read (U.Manager.smas dst) ~addr:l.Mem.Loader.data_base
          ~len:12
      in
      Alcotest.(check string) "globals synced" "shared-state" (Bytes.to_string b);
      let h = Mem.Smas.priv_read (U.Manager.smas dst) ~addr:p ~len:5 in
      Alcotest.(check string) "heap synced" "heap!" (Bytes.to_string h)

let test_clone_isolated_after_sync () =
  (* Post-clone, the spaces diverge: writes in the parent do not appear in
     the child. *)
  let sim, machine = mk_machine () in
  let src = U.Manager.create ~slots:2 ~machine () in
  let dst = U.Manager.create ~slots:2 ~machine () in
  let image = Mem.Image.make ~name:"app" ~text_size:4096 (Sim.rng sim) in
  let u = Result.get_ok (U.Manager.create_uprocess src ~name:"app" ~image ()) in
  let l = Option.get (U.Uprocess.loaded u) in
  ignore (Result.get_ok (U.Manager.clone_uprocess src u ~dst));
  Mem.Smas.priv_write (U.Manager.smas src) ~addr:l.Mem.Loader.data_base
    (Bytes.of_string "after");
  let b =
    Mem.Smas.priv_read (U.Manager.smas dst) ~addr:l.Mem.Loader.data_base ~len:5
  in
  check_bool "diverged" true (Bytes.to_string b <> "after")

let test_clone_slot_conflict () =
  let sim, machine = mk_machine () in
  let src = U.Manager.create ~slots:2 ~machine () in
  let dst = U.Manager.create ~slots:2 ~machine () in
  let image = Mem.Image.make ~name:"a" ~text_size:4096 (Sim.rng sim) in
  let u = Result.get_ok (U.Manager.create_uprocess src ~name:"a" ~image ()) in
  (* Occupy slot 0 in dst so the clone's addresses are taken. *)
  ignore (Result.get_ok (U.Manager.create_uprocess dst ~name:"other" ~image ()));
  match U.Manager.clone_uprocess src u ~dst with
  | Error U.Manager.Domain_full -> ()
  | _ -> Alcotest.fail "clone into an occupied slot must fail"

let suite =
  [
    ( "domains.clone",
      [
        Alcotest.test_case "fork rejected in-domain" `Quick test_fork_rejected;
        Alcotest.test_case "clone keeps addresses" `Quick
          test_clone_identical_addresses;
        Alcotest.test_case "clone synchronizes data+heap" `Quick
          test_clone_synchronizes_data;
        Alcotest.test_case "spaces diverge after clone" `Quick
          test_clone_isolated_after_sync;
        Alcotest.test_case "clone slot conflict" `Quick test_clone_slot_conflict;
      ] );
  ]

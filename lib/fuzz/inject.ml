type t = {
  mutable aex : int;
  mutable epc : int;
  mutable io : int;
  mutable chan : int;
}

let make () = { aex = 0; epc = 0; io = 0; chan = 0 }

let interrupt_every ?inj ~period () =
  if period < 1 then invalid_arg "Inject.interrupt_every";
  let n = ref 0 in
  fun () ->
    incr n;
    let fire = !n mod period = 0 in
    (match inj with Some t when fire -> t.aex <- t.aex + 1 | _ -> ());
    fire

let arm_epc t ~at =
  if at < 1 then invalid_arg "Inject.arm_epc";
  let n = ref 0 in
  Occlum_sgx.Epc.set_alloc_hook
    (Some
       (fun ~pages:_ ->
         incr n;
         if !n = at then begin
           t.epc <- t.epc + 1;
           raise Occlum_sgx.Epc.Out_of_epc
         end))

let arm_sefs t ?(times = 1) ~at ~fault () =
  if at < 1 || times < 1 then invalid_arg "Inject.arm_sefs";
  let n = ref 0 in
  Occlum_libos.Sefs.set_io_hook
    (Some
       (fun ~write:_ ~len:_ ->
         incr n;
         if !n >= at && !n < at + times then begin
           t.io <- t.io + 1;
           Some fault
         end
         else None))

let arm_net t ?(times = 1) ~at ~fault () =
  if at < 1 || times < 1 then invalid_arg "Inject.arm_net";
  let n = ref 0 in
  Occlum_libos.Net.set_io_hook
    (Some
       (fun ~send:_ ~len:_ ->
         incr n;
         if !n >= at && !n < at + times then begin
           t.io <- t.io + 1;
           Some fault
         end
         else None))

let arm_channel t ?(times = 1) ~at ~fault () =
  if at < 1 || times < 1 then invalid_arg "Inject.arm_channel";
  let n = ref 0 in
  Occlum_libos.Host_transport.set_fault_hook
    (Some
       (fun ~src:_ ~dst:_ ~len:_ ->
         incr n;
         if !n >= at && !n < at + times then begin
           t.chan <- t.chan + 1;
           Some fault
         end
         else None))

let disarm () =
  Occlum_sgx.Epc.set_alloc_hook None;
  Occlum_libos.Sefs.set_io_hook None;
  Occlum_libos.Net.set_io_hook None;
  Occlum_libos.Host_transport.set_fault_hook None

let export t reg =
  let module M = Occlum_obs.Metrics in
  M.add (M.counter reg "fuzz.inject.aex") t.aex;
  M.add (M.counter reg "fuzz.inject.epc") t.epc;
  M.add (M.counter reg "fuzz.inject.io") t.io;
  M.add (M.counter reg "fuzz.inject.chan") t.chan

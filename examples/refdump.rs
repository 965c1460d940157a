#![forbid(unsafe_code)]

use subcore_engine::{simulate, GpuConfig, Policies, Workload};
use subcore_isa::{fma_kernel, App, Suite};
use subcore_persist::JsonCodec;
fn main() {
    let cfg = GpuConfig::volta_v100().with_sms(2);
    let app = App::new("ref", Suite::Micro, vec![fma_kernel("ref", 6, 8, 128)]);
    let stats =
        simulate(&cfg, &Policies::hardware_baseline(), Workload::App(&app), Vec::new()).unwrap();
    println!("{}", stats.to_json().render());
}

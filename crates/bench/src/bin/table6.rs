//! Regenerates Table VI: hardened-firmware effectiveness under single,
//! long, and windowed glitch campaigns (107,811 / 98,010 attempts each).
//! A thin client of the campaign engine.

use std::process::ExitCode;

fn main() -> ExitCode {
    gd_bench::artifact_main(|| {
        let result = gd_campaign::Engine::ephemeral()
            .run(&gd_campaign::CampaignSpec::table6())
            .expect("campaign runs");
        gd_bench::emit(&result.text);
    })
}

//! Regenerates Table II: multi-glitch (two identical back-to-back loops),
//! partial vs full success per cycle. A thin client of the campaign
//! engine.

use std::process::ExitCode;

fn main() -> ExitCode {
    gd_bench::artifact_main(|| {
        let result = gd_campaign::Engine::ephemeral()
            .run(&gd_campaign::CampaignSpec::table2())
            .expect("campaign runs");
        print!("{}", result.text);
    })
}

//! Workload inputs: spec files, with `campaign.seed` rewritten from the
//! benchmark's `--seed` so a claim can be re-checked on an unseen seed.

/// The shipped example specs the workloads run, relative to the
/// repository root.
pub const SIGMA_SWEEP: &str = "examples/specs/sigma_sweep.toml";
pub const ENSEMBLE_CI: &str = "examples/specs/ensemble_ci.toml";
/// The benchmark's own inputs (see the comment at the top of each file).
pub const IDLE_WAVE_4096: &str = "perfbench/specs/idle_wave_4096.toml";
pub const SERVE_TINY: &str = "perfbench/specs/serve_tiny.toml";

/// `text` with the `seed = …` line of its `[campaign]` table set to
/// `seed` (inserted after the table header when the spec has none).
pub fn with_campaign_seed(text: &str, seed: u64) -> String {
    let is_seed = |t: &str| {
        t.strip_prefix("seed")
            .is_some_and(|rest| rest.trim_start().starts_with('='))
    };
    let mut section = "";
    let mut has_seed = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if section == "[campaign]" && is_seed(line) {
            has_seed = true;
        }
    }
    let seed_line = format!("seed = {seed}\n");
    let mut out = String::with_capacity(text.len() + 16);
    section = "";
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            section = t;
        } else if section == "[campaign]" && is_seed(t) {
            out.push_str(&seed_line);
            continue;
        }
        out.push_str(line);
        out.push('\n');
        if t == "[campaign]" && !has_seed {
            out.push_str(&seed_line);
        }
    }
    out
}

/// Read a spec file and rewrite its campaign seed.
pub fn load(path: &str, seed: u64) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(with_campaign_seed(&text, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrites_only_the_campaign_seed() {
        let text = "[campaign]\nname = \"x\"\nseed = 42\n[init]\nseed = 5\n";
        let out = with_campaign_seed(text, 7);
        assert_eq!(
            out,
            "[campaign]\nname = \"x\"\nseed = 7\n[init]\nseed = 5\n"
        );
        let spec = pom_sweep::CampaignSpec::parse(&out).unwrap();
        assert_eq!(spec.seed, 7);
    }

    #[test]
    fn inserts_a_missing_seed() {
        let text = "[campaign]\nname = \"x\"\n[model]\nn = 6\n";
        let out = with_campaign_seed(text, 9);
        assert_eq!(out, "[campaign]\nseed = 9\nname = \"x\"\n[model]\nn = 6\n");
    }

    #[test]
    fn benchmark_specs_take_the_seed() {
        for path in [SIGMA_SWEEP, ENSEMBLE_CI, IDLE_WAVE_4096, SERVE_TINY] {
            let text = std::fs::read_to_string(format!("../{path}")).unwrap();
            let spec = pom_sweep::CampaignSpec::parse(&with_campaign_seed(&text, 123)).unwrap();
            assert_eq!(spec.seed, 123, "{path}");
        }
    }
}

//! NAMD-flavoured configuration files.
//!
//! A segment is driven by a small key–value config file, deliberately
//! shaped like a NAMD input so the REM scripts read naturally:
//!
//! ```text
//! # replica 3, segment 7
//! coordinates   r3_s6.coor
//! velocities    r3_s6.vel
//! extendedSystem r3_s6.xsc
//! temperature   1.30
//! numsteps      10
//! timestep      0.005
//! cutoff        2.5
//! langevinDamping 1.0
//! outputname    r3_s7
//! seed          42
//! ```
//!
//! When no restart files are given, `numAtoms`/`density` initialize a
//! fresh lattice. `paceMilliseconds` optionally pads the segment's wall
//! time — the simulated-testbed knob that lets utilization experiments
//! present NAMD-scale task durations without burning host CPU (documented
//! in EXPERIMENTS.md).

use std::fmt;

/// Parsed segment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MdConfig {
    /// Input coordinates file (`None` = lattice init).
    pub coordinates: Option<String>,
    /// Input velocities file (`None` = thermalize at `temperature`).
    pub velocities: Option<String>,
    /// Input extended-system file (step counter etc.).
    pub extended_system: Option<String>,
    /// Atom count for lattice initialization.
    pub num_atoms: usize,
    /// Number density for lattice initialization.
    pub density: f64,
    /// Target (thermostat) temperature, reduced units.
    pub temperature: f64,
    /// Steps to integrate this segment.
    pub numsteps: u64,
    /// Integration timestep, reduced units.
    pub timestep: f64,
    /// LJ cutoff radius.
    pub cutoff: f64,
    /// Langevin friction γ; 0 disables the thermostat (NVE).
    pub langevin_damping: f64,
    /// Prefix for output files (`<outputname>.coor/.vel/.xsc`).
    pub outputname: String,
    /// RNG seed (thermostat noise, initial velocities).
    pub seed: u64,
    /// Pad segment wall time to at least this many milliseconds.
    pub pace_milliseconds: u64,
}

impl Default for MdConfig {
    fn default() -> Self {
        MdConfig {
            coordinates: None,
            velocities: None,
            extended_system: None,
            num_atoms: 125,
            density: 0.3,
            temperature: 1.0,
            numsteps: 10,
            timestep: 0.005,
            cutoff: 2.5,
            langevin_damping: 1.0,
            outputname: "out".to_string(),
            seed: 12345,
            pace_milliseconds: 0,
        }
    }
}

/// Config parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number (0 for whole-file problems).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "config line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl MdConfig {
    /// Parse a config file's text.
    pub fn parse(text: &str) -> Result<MdConfig, ConfigError> {
        let mut config = MdConfig::default();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = match line.split_once(char::is_whitespace) {
                Some((k, v)) => (k, v.trim()),
                None => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("expected 'key value', got '{line}'"),
                    })
                }
            };
            let bad = |what: &str| ConfigError {
                line: lineno,
                message: format!("{key}: {what} ('{value}')"),
            };
            match key {
                "coordinates" => config.coordinates = Some(value.to_string()),
                "velocities" => config.velocities = Some(value.to_string()),
                "extendedSystem" => config.extended_system = Some(value.to_string()),
                "numAtoms" => {
                    config.num_atoms = value.parse().map_err(|_| bad("expected an integer"))?
                }
                "density" => {
                    config.density = value.parse().map_err(|_| bad("expected a number"))?
                }
                "temperature" => {
                    config.temperature = value.parse().map_err(|_| bad("expected a number"))?
                }
                "numsteps" => {
                    config.numsteps = value.parse().map_err(|_| bad("expected an integer"))?
                }
                "timestep" => {
                    config.timestep = value.parse().map_err(|_| bad("expected a number"))?
                }
                "cutoff" => config.cutoff = value.parse().map_err(|_| bad("expected a number"))?,
                "langevinDamping" => {
                    config.langevin_damping = value.parse().map_err(|_| bad("expected a number"))?
                }
                "outputname" => config.outputname = value.to_string(),
                "seed" => config.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "paceMilliseconds" => {
                    config.pace_milliseconds =
                        value.parse().map_err(|_| bad("expected an integer"))?
                }
                // NAMD compatibility: accept-and-ignore structural keys so
                // real-looking inputs parse.
                "structure" | "parameters" | "paraTypeCharmm" | "exclude" | "outputEnergies" => {}
                other => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown key '{other}'"),
                    })
                }
            }
        }
        config
            .validate()
            .map_err(|message| ConfigError { line: 0, message })?;
        Ok(config)
    }

    /// Sanity-check the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_atoms == 0 {
            return Err("numAtoms must be positive".to_string());
        }
        if self.density <= 0.0 {
            return Err("density must be positive".to_string());
        }
        if self.temperature < 0.0 {
            return Err("temperature must be non-negative".to_string());
        }
        if self.timestep <= 0.0 {
            return Err("timestep must be positive".to_string());
        }
        if self.cutoff <= 0.0 {
            return Err("cutoff must be positive".to_string());
        }
        if self.langevin_damping < 0.0 {
            return Err("langevinDamping must be non-negative".to_string());
        }
        if self.outputname.is_empty() {
            return Err("outputname must be non-empty".to_string());
        }
        Ok(())
    }

    /// Render back to config-file text (used by workflow drivers that
    /// generate per-segment configs).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(c) = &self.coordinates {
            out.push_str(&format!("coordinates {c}\n"));
        }
        if let Some(v) = &self.velocities {
            out.push_str(&format!("velocities {v}\n"));
        }
        if let Some(x) = &self.extended_system {
            out.push_str(&format!("extendedSystem {x}\n"));
        }
        out.push_str(&format!("numAtoms {}\n", self.num_atoms));
        out.push_str(&format!("density {}\n", self.density));
        out.push_str(&format!("temperature {}\n", self.temperature));
        out.push_str(&format!("numsteps {}\n", self.numsteps));
        out.push_str(&format!("timestep {}\n", self.timestep));
        out.push_str(&format!("cutoff {}\n", self.cutoff));
        out.push_str(&format!("langevinDamping {}\n", self.langevin_damping));
        out.push_str(&format!("outputname {}\n", self.outputname));
        out.push_str(&format!("seed {}\n", self.seed));
        if self.pace_milliseconds > 0 {
            out.push_str(&format!("paceMilliseconds {}\n", self.pace_milliseconds));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let text = "\
# replica 3
coordinates   r3.coor
velocities    r3.vel
extendedSystem r3.xsc
temperature   1.30
numsteps      10
timestep      0.005
cutoff        2.5
langevinDamping 1.0
outputname    r3_next
seed          42
";
        let c = MdConfig::parse(text).unwrap();
        assert_eq!(c.coordinates.as_deref(), Some("r3.coor"));
        assert_eq!(c.temperature, 1.30);
        assert_eq!(c.numsteps, 10);
        assert_eq!(c.outputname, "r3_next");
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn defaults_fill_missing_keys() {
        let c = MdConfig::parse("numsteps 5\n").unwrap();
        assert_eq!(c.numsteps, 5);
        assert_eq!(c.num_atoms, 125);
        assert!(c.coordinates.is_none());
    }

    #[test]
    fn round_trips_through_render() {
        let c = MdConfig {
            coordinates: Some("a.coor".to_string()),
            pace_milliseconds: 250,
            ..MdConfig::default()
        };
        let back = MdConfig::parse(&c.render()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn rejects_unknown_keys() {
        let e = MdConfig::parse("bogus 1\n").unwrap_err();
        assert!(e.message.contains("unknown key"));
        assert_eq!(e.line, 1);
    }

    #[test]
    fn rejects_malformed_numbers() {
        assert!(MdConfig::parse("numsteps many\n").is_err());
        assert!(MdConfig::parse("temperature warm\n").is_err());
    }

    #[test]
    fn validates_physical_sanity() {
        assert!(MdConfig::parse("timestep 0\n").is_err());
        assert!(MdConfig::parse("density -1\n").is_err());
        assert!(MdConfig::parse("temperature -0.5\n").is_err());
    }

    #[test]
    fn accepts_namd_compat_keys() {
        let c = MdConfig::parse("structure nma.psf\nparameters par_all27.prm\n").unwrap();
        assert_eq!(c, MdConfig::default());
    }
}

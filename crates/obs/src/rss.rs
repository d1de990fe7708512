//! Best-effort peak resident set size, with an explicit provenance tag,
//! and the minor page faults of the process.
//!
//! Artifacts used to emit a bare number (or silently nothing) for peak
//! RSS, which made a `0`/`null` on an unsupported platform look like a
//! measurement. [`peak_rss`] pairs the reading with an [`RssSource`] so
//! the artifact `meta` can say *where* the number came from — or that
//! none was available.

/// Where a peak-RSS reading came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RssSource {
    /// `VmHWM` from `/proc/self/status` (Linux).
    Procfs,
    /// `getrusage(2)` — reserved for platforms without procfs; the
    /// std-only workspace cannot call libc today, so this variant is
    /// never produced, but the artifact schema admits it.
    Rusage,
    /// No supported source on this platform; the reading is absent.
    Unavailable,
}

impl RssSource {
    /// Stable lowercase label used in artifact `meta` records.
    pub fn as_str(self) -> &'static str {
        match self {
            RssSource::Procfs => "procfs",
            RssSource::Rusage => "rusage",
            RssSource::Unavailable => "unavailable",
        }
    }
}

/// Peak RSS in bytes plus the source it was read from.
///
/// Returns `(None, RssSource::Unavailable)` when no source works — never
/// a fabricated zero.
pub fn peak_rss() -> (Option<u64>, RssSource) {
    #[cfg(target_os = "linux")]
    {
        if let Some(bytes) = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| parse_vmhwm(&s))
        {
            return (Some(bytes), RssSource::Procfs);
        }
    }
    (None, RssSource::Unavailable)
}

/// Peak RSS of this process in bytes, if the platform exposes it.
///
/// On Linux this reads `VmHWM` from `/proc/self/status`; elsewhere it
/// returns `None` (artifacts then record `null`). See [`peak_rss`] for
/// the variant that also reports the source.
pub fn peak_rss_bytes() -> Option<u64> {
    peak_rss().0
}

/// Minor page faults of this process so far (`minflt` of
/// `/proc/self/stat`), if the platform exposes them: the difference of
/// two readings counts the first touches of new pages between them.
pub fn minor_faults() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        if let Some(faults) = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_minflt(&s))
        {
            return Some(faults);
        }
    }
    None
}

/// Parses `minflt`, field 10 of `/proc/self/stat`. The command name in
/// field 2 is parenthesised and may hold spaces, so the fields are
/// counted from the last `)`: field 3 (the state) comes first after it.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_minflt(stat: &str) -> Option<u64> {
    let (_, fields) = stat.rsplit_once(')')?;
    fields.split_whitespace().nth(10 - 3)?.parse().ok()
}

/// Parses the `VmHWM:` line of `/proc/self/status` (kB units) into bytes.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn parse_vmhwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .strip_prefix("VmHWM:")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vmhwm_line() {
        let status = "Name:\ttest\nVmPeak:\t  123 kB\nVmHWM:\t   2048 kB\nThreads:\t4\n";
        assert_eq!(parse_vmhwm(status), Some(2048 * 1024));
        assert_eq!(parse_vmhwm("Name: x\n"), None);
    }

    #[test]
    fn parses_minflt_after_the_command_name() {
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194560 1234 0 7 0 5 3 0 0 20 0";
        assert_eq!(parse_minflt(stat), Some(1234));
        assert_eq!(parse_minflt("4242 (x) S 1"), None);
        assert_eq!(parse_minflt("no command name"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_counts_the_first_touch_of_new_pages() {
        let before = minor_faults().expect("/proc/self/stat has minflt");
        let mut pages = vec![0u8; 8 << 20];
        for page in pages.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&pages);
        let after = minor_faults().expect("/proc/self/stat has minflt");
        assert!(after > before, "{before} → {after}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_reports_a_plausible_peak() {
        let peak = peak_rss_bytes().expect("/proc/self/status has VmHWM");
        // a running test binary surely holds more than 1 MiB and less than 1 TiB
        assert!(peak > 1 << 20, "{peak}");
        assert!(peak < 1 << 40, "{peak}");
    }

    #[test]
    fn source_matches_reading() {
        let (bytes, source) = peak_rss();
        match source {
            RssSource::Procfs | RssSource::Rusage => assert!(bytes.is_some()),
            RssSource::Unavailable => assert!(bytes.is_none()),
        }
        assert!(["procfs", "rusage", "unavailable"].contains(&source.as_str()));
    }
}

//! Output checks made apart from the program: against the simulator's
//! ground truth, a brute-force reference, the injected slowdown, or the
//! report the library renders in-process for the same trace.

use crate::stats::OpError;

/// Largest distance (as a fraction of the burst) between a detected phase
/// boundary and the simulator's true boundary.
pub const BOUNDARY_TOLERANCE: f64 = 0.03;

/// Detected interior boundaries match the true ones one-to-one, each
/// within `tol`.
pub fn check_boundaries(detected: &[f64], truth: &[f64], tol: f64) -> Result<(), String> {
    if detected.len() != truth.len() {
        return Err(format!(
            "{} boundaries detected, {} expected (detected {detected:.3?}, truth {truth:.3?})",
            detected.len(),
            truth.len()
        ));
    }
    let mut d = detected.to_vec();
    let mut t = truth.to_vec();
    d.sort_by(f64::total_cmp);
    t.sort_by(f64::total_cmp);
    for (a, b) in d.iter().zip(&t) {
        let off = (a - b).abs();
        if off.is_nan() || off > tol {
            return Err(format!(
                "boundary {a:.4} is more than {tol} from the true {b:.4}"
            ));
        }
    }
    Ok(())
}

fn dist2(a: &[f64; 2], b: &[f64; 2]) -> f64 {
    let dx = a[0] - b[0];
    let dy = a[1] - b[1];
    dx * dx + dy * dy
}

fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// Confirms a DBSCAN labelling by brute force over all pairs: the core set
/// (points with at least `min_pts` points, themselves included, within
/// `eps`), the partition of core points into ε-connected components (up to
/// relabelling), and the labels of non-core points (a cluster of a core
/// point within ε, or noise when there is none).
pub fn check_dbscan(
    points: &[[f64; 2]],
    eps: f64,
    min_pts: usize,
    labels: &[Option<usize>],
) -> Result<(), String> {
    let n = points.len();
    if labels.len() != n {
        return Err(format!("{} labels for {n} points", labels.len()));
    }
    let eps2 = eps * eps;
    let mut count = vec![1usize; n];
    for i in 0..n {
        for j in i + 1..n {
            if dist2(&points[i], &points[j]) <= eps2 {
                count[i] += 1;
                count[j] += 1;
            }
        }
    }
    let core: Vec<bool> = count.iter().map(|&c| c >= min_pts).collect();
    let mut parent: Vec<usize> = (0..n).collect();
    // For each non-core point: whether a core neighbour carries its label,
    // and whether any core neighbour exists at all.
    let mut label_backed = vec![false; n];
    let mut has_core_neighbour = vec![false; n];
    for i in 0..n {
        for j in i + 1..n {
            if dist2(&points[i], &points[j]) > eps2 {
                continue;
            }
            match (core[i], core[j]) {
                (true, true) => {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                    if a != b {
                        parent[a] = b;
                    }
                }
                (true, false) | (false, true) => {
                    let (c, p) = if core[i] { (i, j) } else { (j, i) };
                    has_core_neighbour[p] = true;
                    if labels[p].is_some() && labels[p] == labels[c] {
                        label_backed[p] = true;
                    }
                }
                (false, false) => {}
            }
        }
    }
    let mut label_of_component = std::collections::HashMap::new();
    let mut component_of_label = std::collections::HashMap::new();
    for i in 0..n {
        if core[i] {
            let Some(label) = labels[i] else {
                return Err(format!("core point {i} is labelled noise"));
            };
            let comp = find(&mut parent, i);
            if *label_of_component.entry(comp).or_insert(label) != label {
                return Err(format!(
                    "one ε-connected core component carries two labels (point {i})"
                ));
            }
            if *component_of_label.entry(label).or_insert(comp) != comp {
                return Err(format!(
                    "label {label} spans two core components (point {i})"
                ));
            }
        } else {
            match labels[i] {
                Some(label) if !label_backed[i] => {
                    return Err(format!(
                        "border point {i} has label {label} but no core neighbour with it"
                    ));
                }
                None if has_core_neighbour[i] => {
                    return Err(format!(
                        "point {i} is labelled noise but lies within ε of a core point"
                    ));
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// Share of the baseline's time the verdict must list as vanished for a
/// clean verdict to be the known cluster-matching fault: the baseline's
/// main phases were paired with nothing.
pub const FAULT_VANISHED_SHARE: f64 = 0.5;

/// The regression gate fires exactly on candidates with an injected
/// slowdown. A wrong verdict is a known fault only on the fault's
/// reproduction pair (`known_fault`) and only with its symptom: a clean
/// verdict with at least [`FAULT_VANISHED_SHARE`] of the baseline's time
/// listed as vanished. Any other wrong verdict is a wrong answer.
pub fn check_verdict(
    regressed: bool,
    slowdown: f64,
    vanished_share: f64,
    known_fault: bool,
) -> Result<(), OpError> {
    if regressed == (slowdown > 0.0) {
        return Ok(());
    }
    let e = format!(
        "verdict regressed={regressed} on a candidate with {:.0}% injected slowdown \
         ({:.1}% of the baseline time listed as vanished)",
        slowdown * 100.0,
        vanished_share * 100.0
    );
    if known_fault && !regressed && vanished_share >= FAULT_VANISHED_SHARE {
        Err(OpError::KnownFault(e))
    } else {
        Err(OpError::Wrong(e))
    }
}

/// A served report is byte-for-byte the report rendered in-process.
pub fn check_report_body(body: &[u8], reference: &str) -> Result<(), String> {
    let reference = reference.as_bytes();
    if body == reference {
        return Ok(());
    }
    let at = body
        .iter()
        .zip(reference)
        .position(|(a, b)| a != b)
        .unwrap_or(body.len().min(reference.len()));
    Err(format!(
        "served report differs from the in-process report at byte {at} ({} vs {} bytes)",
        body.len(),
        reference.len()
    ))
}

/// The value of `"key": <value>` in the daemon's flat JSON replies.
pub fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    let start = body.find(&pattern)? + pattern.len();
    let rest = body[start..].trim_start();
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A record batch was acknowledged with every line accepted.
pub fn check_ack(body: &str, lines_sent: usize) -> Result<(), String> {
    match json_field(body, "accepted").and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n == lines_sent => Ok(()),
        Some(n) => Err(format!(
            "batch of {lines_sent} lines acknowledged {n} accepted"
        )),
        None => Err(format!(
            "acknowledgment without an accepted count: {body:?}"
        )),
    }
}

/// A session's final snapshot is warm and shows the expected structure.
pub fn check_final_phases(body: &str, clusters: usize, phases: usize) -> Result<(), String> {
    let field = |k: &str| json_field(body, k).unwrap_or("?").to_string();
    let warm = field("warm");
    let got_clusters = field("num_clusters");
    let got_phases = field("num_phases");
    if warm == "true" && got_clusters == clusters.to_string() && got_phases == phases.to_string() {
        Ok(())
    } else {
        Err(format!(
            "final snapshot warm={warm} clusters={got_clusters} phases={got_phases}, \
             expected warm=true clusters={clusters} phases={phases}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_within_tolerance_pass_and_a_shifted_one_fails() {
        let truth = [0.303, 0.758];
        assert!(check_boundaries(&[0.304, 0.759], &truth, BOUNDARY_TOLERANCE).is_ok());
        assert!(check_boundaries(&[0.304 + 0.05, 0.759], &truth, BOUNDARY_TOLERANCE).is_err());
        assert!(check_boundaries(&[0.304], &truth, BOUNDARY_TOLERANCE).is_err());
        assert!(check_boundaries(&[f64::NAN, 0.759], &truth, BOUNDARY_TOLERANCE).is_err());
    }

    /// Two lines of ten points 0.01 apart (ε = 0.05), a border point next to
    /// the first, one outlier.
    fn blobs() -> (Vec<[f64; 2]>, Vec<Option<usize>>) {
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            pts.push([0.1 + 0.01 * i as f64, 0.1]);
            labels.push(Some(0));
        }
        for i in 0..10 {
            pts.push([0.9 + 0.01 * i as f64, 0.9]);
            labels.push(Some(1));
        }
        pts.push([0.055, 0.1]); // within ε of one core point only
        labels.push(Some(0));
        pts.push([0.5, 0.5]);
        labels.push(None);
        (pts, labels)
    }

    #[test]
    fn dbscan_check_accepts_a_relabelled_correct_answer() {
        let (pts, labels) = blobs();
        assert_eq!(check_dbscan(&pts, 0.05, 4, &labels), Ok(()));
        let swapped: Vec<Option<usize>> = labels.iter().map(|l| l.map(|c| 1 - c)).collect();
        assert_eq!(check_dbscan(&pts, 0.05, 4, &swapped), Ok(()));
    }

    #[test]
    fn dbscan_check_rejects_a_split_cluster() {
        let (pts, mut labels) = blobs();
        for l in labels.iter_mut().take(5) {
            *l = Some(2);
        }
        assert!(check_dbscan(&pts, 0.05, 4, &labels).is_err());
    }

    #[test]
    fn dbscan_check_rejects_merged_clusters_and_wrong_noise() {
        let (pts, labels) = blobs();
        let merged: Vec<Option<usize>> = labels.iter().map(|l| l.map(|_| 0)).collect();
        assert!(check_dbscan(&pts, 0.05, 4, &merged).is_err());
        let mut noisy = labels.clone();
        noisy[3] = None; // a core point dropped to noise
        assert!(check_dbscan(&pts, 0.05, 4, &noisy).is_err());
        let mut claimed = labels;
        claimed[21] = Some(0); // the outlier claimed by a cluster
        assert!(check_dbscan(&pts, 0.05, 4, &claimed).is_err());
    }

    #[test]
    fn verdict_check_rejects_a_flipped_verdict() {
        assert!(check_verdict(true, 0.3, 0.0, false).is_ok());
        assert!(check_verdict(false, 0.0, 0.0, false).is_ok());
        assert!(matches!(
            check_verdict(false, 0.3, 0.0, false),
            Err(OpError::Wrong(_))
        ));
        assert!(matches!(
            check_verdict(true, 0.0, 0.0, false),
            Err(OpError::Wrong(_))
        ));
        // The fault's symptom counts as a wrong answer on any other input.
        assert!(matches!(
            check_verdict(false, 0.3, 0.99, false),
            Err(OpError::Wrong(_))
        ));
    }

    #[test]
    fn only_the_faults_own_symptom_is_a_known_fault() {
        assert!(matches!(
            check_verdict(false, 0.3, 0.99, true),
            Err(OpError::KnownFault(_))
        ));
        // A clean verdict with the main phases still matched is wrong.
        assert!(matches!(
            check_verdict(false, 0.3, 0.1, true),
            Err(OpError::Wrong(_))
        ));
        // A regression reported on the pair is right, not a fault.
        assert!(check_verdict(true, 0.3, 0.99, true).is_ok());
    }

    #[test]
    fn body_check_rejects_a_one_byte_difference() {
        let reference = "phasefold analysis report\nbursts: 796\n";
        assert!(check_report_body(reference.as_bytes(), reference).is_ok());
        let mut body = reference.as_bytes().to_vec();
        body[30] ^= 1;
        assert!(check_report_body(&body, reference)
            .unwrap_err()
            .contains("at byte 30"));
        assert!(check_report_body(&body[..10], reference).is_err());
    }

    #[test]
    fn stream_checks_read_the_daemon_replies() {
        let ack = "{\n\"session\": \"c0r1\",\n\"accepted\": 32,\n\"quarantined\": 0\n}\n";
        assert!(check_ack(ack, 32).is_ok());
        assert!(check_ack(ack, 31).is_err());
        assert!(check_ack("{}", 32).is_err());
        let phases = "{\n\"warm\": true,\n\"num_clusters\": 1,\n\"num_models\": 1,\n\"num_phases\": 3,\n\"faults\": 0\n}\n";
        assert!(check_final_phases(phases, 1, 3).is_ok());
        assert!(check_final_phases(
            &phases.replace("\"num_phases\": 3", "\"num_phases\": 2"),
            1,
            3
        )
        .is_err());
        assert!(check_final_phases(&phases.replace("true", "false"), 1, 3).is_err());
    }
}

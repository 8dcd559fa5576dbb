//! Gnuplot artifact emission: each figure binary can drop a `.dat` +
//! `.gp` pair under `target/plots/` so the paper's figures can be
//! rendered graphically (`gnuplot target/plots/<name>.gp`), without
//! adding a plotting dependency.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Where plot artifacts go.
pub(crate) fn plot_dir() -> PathBuf {
    Path::new("target").join("plots")
}

/// Writes an XY series plot: one `.dat` with `x y` rows per series and
/// a `.gp` script plotting them as lines.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_series(
    name: &str,
    title: &str,
    xlabel: &str,
    ylabel: &str,
    series: &[(&str, &[(f64, f64)])],
    logx: bool,
) -> io::Result<PathBuf> {
    let dir = plot_dir();
    fs::create_dir_all(&dir)?;
    let mut dat = String::new();
    for (label, points) in series {
        dat.push_str(&format!("# {label}\n"));
        for (x, y) in points.iter() {
            dat.push_str(&format!("{x} {y}\n"));
        }
        dat.push_str("\n\n"); // gnuplot index separator
    }
    fs::write(dir.join(format!("{name}.dat")), dat)?;

    let mut gp = String::new();
    gp.push_str(&format!(
        "set title \"{title}\"\nset xlabel \"{xlabel}\"\nset ylabel \"{ylabel}\"\nset grid\n"
    ));
    if logx {
        gp.push_str("set logscale x\n");
    }
    gp.push_str(&format!(
        "set terminal pngcairo size 900,560\nset output \"{name}.png\"\n"
    ));
    let plots: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (label, _))| {
            format!("\"{name}.dat\" index {i} using 1:2 with lines title \"{label}\"")
        })
        .collect();
    gp.push_str(&format!("plot {}\n", plots.join(", \\\n     ")));
    let path = dir.join(format!("{name}.gp"));
    fs::write(&path, gp)?;
    Ok(path)
}

/// Writes a grouped bar chart: rows are categories, one column per
/// group.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_bars(
    name: &str,
    title: &str,
    ylabel: &str,
    groups: &[&str],
    rows: &[(&str, Vec<f64>)],
) -> io::Result<PathBuf> {
    let dir = plot_dir();
    fs::create_dir_all(&dir)?;
    let mut dat = String::from("category");
    for g in groups {
        dat.push_str(&format!(" {g}"));
    }
    dat.push('\n');
    for (cat, values) in rows {
        dat.push_str(&format!("\"{cat}\""));
        for v in values {
            dat.push_str(&format!(" {v}"));
        }
        dat.push('\n');
    }
    fs::write(dir.join(format!("{name}.dat")), dat)?;

    let mut gp = String::new();
    gp.push_str(&format!(
        "set title \"{title}\"\nset ylabel \"{ylabel}\"\nset style data histograms\n\
         set style fill solid 0.8\nset xtics rotate by -45\nset grid ytics\n\
         set terminal pngcairo size 1400,640\nset output \"{name}.png\"\n"
    ));
    let cols: Vec<String> = (0..groups.len())
        .map(|i| {
            let col = i + 2;
            let using = if i == 0 {
                format!("using {col}:xtic(1)")
            } else {
                format!("using {col}")
            };
            format!("\"{name}.dat\" {using} title columnheader({col})")
        })
        .collect();
    gp.push_str(&format!("plot {}\n", cols.join(", \\\n     ")));
    let path = dir.join(format!("{name}.gp"));
    fs::write(&path, gp)?;
    Ok(path)
}

/// Writes a surface/heatmap plot over a rectangular grid: a `.dat`
/// with `x y z` rows (gnuplot grid format — blank line between x
/// scanlines) and a `.gp` script rendering it with `pm3d map`. Used by
/// `ext_shmoo` for the safe-margin surface over the V/F plane.
///
/// `zs` is row-major: `zs[i * ys.len() + j]` is the value at
/// `(xs[i], ys[j])`.
///
/// # Errors
///
/// Propagates filesystem errors.
///
/// # Panics
///
/// Panics when `zs.len() != xs.len() * ys.len()`.
#[allow(clippy::too_many_arguments)]
pub fn write_heatmap(
    name: &str,
    title: &str,
    xlabel: &str,
    ylabel: &str,
    zlabel: &str,
    xs: &[f64],
    ys: &[f64],
    zs: &[f64],
) -> io::Result<PathBuf> {
    assert_eq!(zs.len(), xs.len() * ys.len(), "grid shape mismatch");
    let dir = plot_dir();
    fs::create_dir_all(&dir)?;
    let mut dat = String::new();
    for (i, x) in xs.iter().enumerate() {
        for (j, y) in ys.iter().enumerate() {
            dat.push_str(&format!("{x} {y} {}\n", zs[i * ys.len() + j]));
        }
        dat.push('\n'); // gnuplot scanline separator
    }
    fs::write(dir.join(format!("{name}.dat")), dat)?;

    let gp = format!(
        "set title \"{title}\"\nset xlabel \"{xlabel}\"\nset ylabel \"{ylabel}\"\n\
         set cblabel \"{zlabel}\"\nset view map\nset pm3d interpolate 4,4\n\
         set terminal pngcairo size 900,640\nset output \"{name}.png\"\n\
         splot \"{name}.dat\" using 1:2:3 with pm3d notitle\n"
    );
    let path = dir.join(format!("{name}.gp"));
    fs::write(&path, gp)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_artifacts_are_written() {
        let path = write_series(
            "test_series",
            "t",
            "x",
            "y",
            &[("a", &[(1.0, 2.0), (2.0, 3.0)]), ("b", &[(1.0, 1.0)])],
            true,
        )
        .unwrap();
        let gp = fs::read_to_string(&path).unwrap();
        assert!(gp.contains("set logscale x"));
        assert!(gp.contains("index 1"));
        let dat = fs::read_to_string(plot_dir().join("test_series.dat")).unwrap();
        assert!(dat.contains("# a"));
        assert!(dat.contains("1 2"));
    }

    #[test]
    fn heatmap_artifacts_are_written() {
        let path = write_heatmap(
            "test_heatmap",
            "t",
            "V",
            "MHz",
            "margin",
            &[0.95, 1.0],
            &[2800.0, 3200.0],
            &[0.01, 0.02, 0.03, 0.04],
        )
        .unwrap();
        let gp = fs::read_to_string(&path).unwrap();
        assert!(gp.contains("pm3d"));
        assert!(gp.contains("set view map"));
        let dat = fs::read_to_string(plot_dir().join("test_heatmap.dat")).unwrap();
        assert!(dat.contains("0.95 2800 0.01"));
        assert!(dat.contains("1 3200 0.04"));
    }

    #[test]
    fn bar_artifacts_are_written() {
        let path = write_bars(
            "test_bars",
            "t",
            "droop",
            &["1T", "4T"],
            &[("zeusmp", vec![0.2, 0.8]), ("SM-Res", vec![0.45, 1.57])],
        )
        .unwrap();
        let gp = fs::read_to_string(&path).unwrap();
        assert!(gp.contains("histograms"));
        assert!(gp.contains("columnheader(3)"));
        let dat = fs::read_to_string(plot_dir().join("test_bars.dat")).unwrap();
        assert!(dat.starts_with("category 1T 4T"));
        assert!(dat.contains("\"SM-Res\" 0.45 1.57"));
    }
}

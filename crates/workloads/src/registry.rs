//! The full 112-application registry (Fig. 1 / Fig. 9 population) and the
//! paper's named subsets.

use crate::suites::{suite_app_by_name, suite_apps, ROW_SUITES};
use crate::tpch::{tpch_by_name, tpch_suite};
use subcore_isa::{App, Suite};

/// Builds all 112 applications across the 8 suites: 22 + 22 TPC-H queries
/// and 68 apps from the other six suites.
pub fn all_apps() -> Vec<App> {
    let mut apps = Vec::with_capacity(112);
    apps.extend(tpch_suite(false));
    apps.extend(tpch_suite(true));
    for suite in ROW_SUITES {
        apps.extend(suite_apps(suite));
    }
    apps
}

/// Builds every app belonging to `suite`.
pub fn apps_in_suite(suite: Suite) -> Vec<App> {
    match suite {
        Suite::TpchUncompressed => tpch_suite(false),
        Suite::TpchCompressed => tpch_suite(true),
        other => suite_apps(other),
    }
}

/// Builds one app by its Table III-style abbreviation (e.g. `rod-srad`,
/// `tpcU-q8`): only the matching row or query is built, and it is `==`
/// the app [`all_apps`] yields under that name. Returns `None` for
/// unknown names.
pub fn app_by_name(name: &str) -> Option<App> {
    tpch_by_name(name).or_else(|| suite_app_by_name(name))
}

/// The paper's Fig. 10 "sensitive to SM subdivision" subset (Table III),
/// by name.
pub const SENSITIVE_APPS: [&str; 25] = [
    "tpcU-q8",
    "tpcC-q9",
    "pb-mriq",
    "pb-mrig",
    "pb-sad",
    "pb-sgemm",
    "pb-cutcp",
    "cutlass-4096",
    "rod-lavaMD",
    "rod-bp",
    "rod-srad",
    "rod-htsp",
    "cg-lou",
    "cg-bfs",
    "cg-sssp",
    "cg-pgrnk",
    "cg-wcc",
    "cg-katz",
    "cg-hits",
    "ply-2Dcon",
    "ply-3Dcon",
    "db-conv-tr",
    "db-conv-inf",
    "db-rnn-tr",
    "db-rnn-inf",
];

/// Builds the sensitive subset.
pub fn sensitive_apps() -> Vec<App> {
    let all = all_apps();
    SENSITIVE_APPS
        .iter()
        .map(|&n| {
            all.iter()
                .find(|a| a.name() == n)
                .unwrap_or_else(|| panic!("sensitive app {n} missing from registry"))
                .clone()
        })
        .collect()
}

/// The register-file-sensitive subset used for Figs. 11/12/14 (apps the
/// paper calls out as read-operand-stage limited).
pub const RF_SENSITIVE_APPS: [&str; 13] = [
    "pb-mriq",
    "pb-mrig",
    "pb-sgemm",
    "rod-lavaMD",
    "rod-bp",
    "rod-srad",
    "cg-lou",
    "cg-pgrnk",
    "cg-katz",
    "cg-hits",
    "ply-2Dcon",
    "ply-3Dcon",
    "db-rnn-tr",
];

/// Builds the register-file-sensitive subset.
pub fn rf_sensitive_apps() -> Vec<App> {
    let all = all_apps();
    RF_SENSITIVE_APPS
        .iter()
        .map(|&n| {
            all.iter()
                .find(|a| a.name() == n)
                .unwrap_or_else(|| panic!("rf-sensitive app {n} missing from registry"))
                .clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_112_apps() {
        assert_eq!(all_apps().len(), 112);
    }

    #[test]
    fn all_names_unique() {
        let mut names: Vec<String> = all_apps().iter().map(|a| a.name().to_owned()).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn eight_suites_represented() {
        let apps = all_apps();
        for suite in Suite::ALL {
            assert!(apps.iter().any(|a| a.suite() == suite), "suite {suite} has no apps");
        }
    }

    #[test]
    fn lookup_by_name() {
        let app = app_by_name("rod-srad").expect("known app");
        assert_eq!(app.suite(), Suite::Rodinia);
        assert!(app_by_name("not-an-app").is_none());
    }

    #[test]
    fn lookup_by_name_builds_the_registry_app() {
        for app in all_apps() {
            assert_eq!(app_by_name(app.name()).as_ref(), Some(&app), "{}", app.name());
        }
    }

    #[test]
    fn lookup_by_name_rejects_near_misses() {
        for name in [
            "",
            "tpcU-q0",
            "tpcU-q23",
            "tpcU-q08",
            "tpcU-q+8",
            "tpcU-q",
            "tpcX-q8",
            "tpcU-q8 ",
            "TPCU-Q8",
            "rod-srad-k0",
            "rod-",
            "fma",
        ] {
            assert!(app_by_name(name).is_none(), "`{name}` is not a registry name");
        }
    }

    #[test]
    fn sensitive_subset_resolves() {
        let apps = sensitive_apps();
        assert_eq!(apps.len(), SENSITIVE_APPS.len());
    }

    #[test]
    fn rf_sensitive_subset_resolves() {
        let apps = rf_sensitive_apps();
        assert_eq!(apps.len(), RF_SENSITIVE_APPS.len());
    }

    #[test]
    fn suite_filter_matches_membership() {
        for suite in Suite::ALL {
            for app in apps_in_suite(suite) {
                assert_eq!(app.suite(), suite);
            }
        }
    }
}

//! A self-contained miniature re-implementation of the `proptest` crate's
//! public surface, as used by this workspace.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the property-testing harness it needs: random generation from a
//! deterministic per-test seed, the `proptest!` macro family, the strategy
//! combinators the tests use (ranges, tuples, `prop_map`, collections,
//! arrays, options, unions), and **greedy shrinking** — a failing case is
//! reduced toward a minimal counterexample before being reported, exactly
//! the workflow the equivalence fuzz tests rely on.
//!
//! Design: a [`strategy::Strategy`] samples an internal *representation*
//! (`Repr`) and realizes it into the test's value. Shrinking proposes
//! simpler representations (shorter vectors, values closer to the range
//! floor, `None` instead of `Some`), and the runner greedily walks them
//! while the test keeps failing. `prop_map` shrinks through its source
//! representation, so mapped strategies shrink as well as primitive ones.

pub mod strategy;
pub mod test_runner;

/// The numeric `ANY` constants (`proptest::num::u8::ANY`, …).
pub mod num {
    macro_rules! any_mod {
        ($($m:ident : $t:ty),* $(,)?) => {$(
            pub mod $m {
                /// The full-range strategy for this numeric type.
                pub const ANY: core::ops::RangeInclusive<$t> = <$t>::MIN..=<$t>::MAX;
            }
        )*};
    }
    any_mod!(u8: u8, u16: u16, u32: u32, u64: u64, usize: usize,
             i8: i8, i16: i16, i32: i32, i64: i64, isize: isize);
}

/// Boolean strategies (`proptest::bool::ANY`).
pub mod bool {
    /// Generates `true` or `false`; shrinks toward `false`.
    pub const ANY: crate::strategy::BoolAny = crate::strategy::BoolAny;
}

/// Array strategies (`proptest::array::uniform4`).
pub mod array {
    use crate::strategy::{Strategy, UniformArray};

    /// Four independent draws from `s`, shrunk element-wise.
    pub fn uniform4<S: Strategy>(s: S) -> UniformArray<S, 4> {
        UniformArray::new(s)
    }
}

/// Collection strategies (`proptest::collection::vec`, `btree_set`).
pub mod collection {
    use crate::strategy::{BTreeSetStrategy, SizeRange, Strategy, VecStrategy};

    /// A vector of draws from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy::new(element, size.into())
    }

    /// A `BTreeSet` of draws from `element` (duplicates merge, so the
    /// realized set may be smaller than the drawn length).
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy::new(element, size.into())
    }
}

/// Option strategies (`proptest::option::of`).
pub mod option {
    use crate::strategy::{OptionStrategy, Strategy};

    /// `Some` of a draw from `s` (7/8 of the time) or `None`; shrinks
    /// toward `None`.
    pub fn of<S: Strategy>(s: S) -> OptionStrategy<S> {
        OptionStrategy::new(s)
    }
}

/// Everything a test module needs: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::strategy::{BoxedUnion, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Fails the test case with a message unless `cond` holds (the failing
/// input is then shrunk and reported by the runner).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(format!($($fmt)*));
        }
    };
}

/// Fails the test case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a == *b,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(*a == *b, $($fmt)*);
    }};
}

/// Fails the test case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            *a != *b,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Chooses uniformly among the argument strategies (all must realize the
/// same value type). Shrinking stays within the chosen branch.
#[macro_export]
macro_rules! prop_oneof {
    ($a:expr $(,)?) => { $a };
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::BoxedUnion::new(vec![$($crate::strategy::boxed($arm)),+])
    };
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
/// Each function carries the attributes written on it; in a test module
/// that is `#[test]`, and here the function is called directly.
///
/// ```
/// # use proptest::prelude::*;
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     fn adds_commute(a in 0u32..100, b in 0u32..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// adds_commute();
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ config = $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let strategy = ($($strat,)+);
            $crate::test_runner::run_proptest(
                stringify!($name),
                &config,
                &strategy,
                |($($pat,)+)| {
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
    )*};
}

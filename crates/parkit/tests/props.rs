//! Property tests for the parkit contract: any thread policy, any chunk
//! size and any work grain produce exactly what a serial loop over the
//! same pure function would — same length, same order, same first error.

use proptest::prelude::*;

/// The policies exercised by every property: inline, one worker (the
/// degenerate pool), and oversubscribed pools.
fn policies() -> [parkit::Threads; 4] {
    [
        parkit::Threads::Serial,
        parkit::Threads::Fixed(1),
        parkit::Threads::Fixed(3),
        parkit::Threads::Fixed(8),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn par_map_matches_serial_map(items in prop::collection::vec(0u64..10_000, 0..300)) {
        let expected: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31) ^ 7).collect();
        for threads in policies() {
            let got = parkit::par_map(threads, &items, |&x| x.wrapping_mul(31) ^ 7);
            prop_assert_eq!(&got, &expected);
        }
    }

    #[test]
    fn any_chunk_size_preserves_order_and_length(
        items in prop::collection::vec(0u32..1_000, 0..250),
        chunk in 0usize..40,
        workers in 1usize..9,
    ) {
        // Chunk size is scheduling granularity only; index i must map to
        // output slot i for every (chunk, worker-count) combination —
        // including chunk 0 (clamped to 1) and chunks larger than the input.
        let got: Vec<(usize, u32)> = parkit::try_par_map_chunked(
            parkit::Threads::Fixed(workers),
            chunk,
            &items,
            |i, &x| Ok::<_, std::convert::Infallible>((i, x)),
        )
        .unwrap();
        prop_assert_eq!(got.len(), items.len());
        for (i, &(gi, gx)) in got.iter().enumerate() {
            prop_assert_eq!(gi, i);
            prop_assert_eq!(gx, items[i]);
        }
    }

    #[test]
    fn first_error_is_lowest_failing_index(
        n in 1usize..200,
        fail_mod in 2usize..7,
        fail_off in 0usize..7,
        chunk in 1usize..16,
        work in 0usize..20_000,
        grain in 0usize..20_000,
    ) {
        // Fail every index where i % fail_mod == fail_off; the surfaced
        // error must be the lowest such index, as a serial loop would give,
        // no matter which worker hits an error first or which side of
        // its grain the job falls on.
        let items: Vec<usize> = (0..n).collect();
        let serial_first = (0..n).find(|i| i % fail_mod == fail_off);
        for threads in policies().map(|p| p.for_work(work, grain)) {
            let got = parkit::try_par_map_chunked(threads, chunk, &items, |i, &x| {
                if i % fail_mod == fail_off {
                    Err(i)
                } else {
                    Ok(x)
                }
            });
            match serial_first {
                Some(first) => prop_assert_eq!(got.unwrap_err(), first),
                None => prop_assert_eq!(got.unwrap(), items.clone()),
            }
        }
    }

    #[test]
    fn par_apply_chunks_matches_serial_pass(
        items in prop::collection::vec(-1_000i64..1_000, 0..300),
        work in 0usize..20_000,
        grain in 0usize..20_000,
    ) {
        // A pure per-element update through the offset must equal the
        // serial pass regardless of how the slice is partitioned, on
        // either side of the job's grain.
        let mut expected = items.clone();
        for (i, v) in expected.iter_mut().enumerate() {
            *v = v.wrapping_add(i as i64 * 3);
        }
        for threads in policies().map(|p| p.for_work(work, grain)) {
            let mut got = items.clone();
            parkit::par_apply_chunks(threads, &mut got, |offset, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = v.wrapping_add((offset + k) as i64 * 3);
                }
            });
            prop_assert_eq!(&got, &expected);
        }
    }

    #[test]
    fn indexed_map_sees_every_index_once(
        n in 0usize..300,
        workers in 1usize..9,
    ) {
        let items: Vec<u8> = vec![0; n];
        let idxs = parkit::par_map_indexed(parkit::Threads::Fixed(workers), &items, |i, _| i);
        prop_assert_eq!(idxs, (0..n).collect::<Vec<_>>());
    }
}

//! Simulated face-matching pipeline for profile images (Figure 4).
//!
//! The paper uses an off-the-shelf face detector, feature extractor and
//! pre-trained classifier (\[12\]) in a staged workflow:
//!
//! ```text
//! image? ──no──▶ Abort          face? ──no──▶ Abort
//!   │ yes                          │ yes
//!   ▼                              ▼
//! face detector ────────▶ feature extraction ──▶ classifier ──▶ score ∈ [0,1]
//! ```
//!
//! Since the pre-trained models are unavailable, we simulate the pipeline
//! over **latent face embeddings**: every natural person carries a
//! unit-norm embedding; platform profile images hold a noisy copy, a fake
//! face (someone else's embedding), or no face at all ("the face images
//! might not be real, or come with poor illumination and severe occlusion" —
//! Section 5.1). The detector fails on low-quality images, and the
//! classifier is a fixed logistic over embedding distance, optionally
//! calibrated on labeled pairs. HYDRA only ever consumes the final
//! confidence score (or the abstention), so the substitution preserves the
//! interface and the failure modes of the real pipeline.

use rand::Rng;

/// Dimension of the latent face-embedding space.
pub const EMBEDDING_DIM: usize = 16;

/// A latent face embedding (unit norm by construction).
#[derive(Debug, Clone, PartialEq)]
pub struct FaceEmbedding(pub Vec<f64>);

impl FaceEmbedding {
    /// Sample a random unit-norm embedding.
    pub fn random<R: Rng>(rng: &mut R) -> Self {
        loop {
            let v: Vec<f64> = (0..EMBEDDING_DIM)
                .map(|_| rng.gen::<f64>() * 2.0 - 1.0)
                .collect();
            let n = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            if n > 1e-6 {
                return FaceEmbedding(v.into_iter().map(|x| x / n).collect());
            }
        }
    }

    /// A noisy copy: adds isotropic noise of magnitude `noise` then
    /// re-normalizes — models re-encoding, cropping, compression.
    pub fn perturbed<R: Rng>(&self, noise: f64, rng: &mut R) -> Self {
        let mut v: Vec<f64> = self
            .0
            .iter()
            .map(|x| x + noise * (rng.gen::<f64>() * 2.0 - 1.0))
            .collect();
        let n = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if n > 1e-9 {
            v.iter_mut().for_each(|x| *x /= n);
        }
        FaceEmbedding(v)
    }

    /// Euclidean distance between embeddings.
    pub fn distance(&self, other: &FaceEmbedding) -> f64 {
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

/// What a profile image actually contains.
#[derive(Debug, Clone, PartialEq)]
pub enum ImageContent {
    /// A (possibly noisy, possibly fake) face with capture quality in
    /// `[0, 1]` — poor illumination / occlusion lowers quality.
    Face {
        /// Embedding visible in the image.
        embedding: FaceEmbedding,
        /// Capture quality; low quality defeats the detector.
        quality: f64,
    },
    /// Scenery, cartoons, logos — no detectable face.
    NoFace,
}

/// A profile image as stored on a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileImage {
    /// Image payload.
    pub content: ImageContent,
}

impl ProfileImage {
    /// Approximate heap size (length-based; ignores allocator slack).
    pub fn heap_bytes(&self) -> usize {
        match &self.content {
            ImageContent::Face { embedding, .. } => embedding.0.len() * std::mem::size_of::<f64>(),
            ImageContent::NoFace => 0,
        }
    }
}

/// Stage-wise outcome of the Figure-4 workflow.
#[derive(Debug, Clone, PartialEq)]
pub enum FaceMatchOutcome {
    /// Both faces detected; classifier confidence in `[0, 1]`.
    Score(f64),
    /// Pipeline aborted before scoring.
    Aborted(AbortReason),
}

/// Why the pipeline aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// At least one side has no profile image at all.
    MissingImage,
    /// An image exists but no face was detected in it.
    NoFaceDetected,
}

/// Quality-thresholding face detector.
#[derive(Debug, Clone, Copy)]
pub struct FaceDetector {
    /// Minimum capture quality for a successful detection.
    pub min_quality: f64,
}

impl Default for FaceDetector {
    fn default() -> Self {
        FaceDetector { min_quality: 0.25 }
    }
}

impl FaceDetector {
    /// Detect and extract the face embedding, if any.
    fn detect<'a>(&self, image: &'a ProfileImage) -> Option<&'a FaceEmbedding> {
        match &image.content {
            ImageContent::Face { embedding, quality } if *quality >= self.min_quality => {
                Some(embedding)
            }
            _ => None,
        }
    }
}

/// Logistic face classifier over embedding distance:
/// `score = 1 / (1 + exp(slope·(distance − threshold)))`.
#[derive(Debug, Clone, Copy)]
pub struct FaceClassifier {
    /// Distance at which the score crosses 0.5.
    pub threshold: f64,
    /// Steepness of the logistic transition.
    pub slope: f64,
}

impl Default for FaceClassifier {
    /// The "pre-trained" operating point: same-person noisy re-encodings
    /// land well under distance 0.6 on unit-norm embeddings, while two
    /// random unit vectors in 16-d concentrate near √2.
    fn default() -> Self {
        FaceClassifier {
            threshold: 0.8,
            slope: 8.0,
        }
    }
}

impl FaceClassifier {
    /// Confidence in `[0, 1]` that two embeddings show the same person.
    pub fn score(&self, a: &FaceEmbedding, b: &FaceEmbedding) -> f64 {
        let d = a.distance(b);
        1.0 / (1.0 + (self.slope * (d - self.threshold)).exp())
    }
}

/// The full Figure-4 workflow over two optional profile images.
pub fn match_profile_images(
    a: Option<&ProfileImage>,
    b: Option<&ProfileImage>,
    detector: &FaceDetector,
    classifier: &FaceClassifier,
) -> FaceMatchOutcome {
    let (Some(ia), Some(ib)) = (a, b) else {
        return FaceMatchOutcome::Aborted(AbortReason::MissingImage);
    };
    let (Some(fa), Some(fb)) = (detector.detect(ia), detector.detect(ib)) else {
        return FaceMatchOutcome::Aborted(AbortReason::NoFaceDetected);
    };
    FaceMatchOutcome::Score(classifier.score(fa, fb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn face(e: &FaceEmbedding, q: f64) -> ProfileImage {
        ProfileImage {
            content: ImageContent::Face {
                embedding: e.clone(),
                quality: q,
            },
        }
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let mut r = rng();
        for _ in 0..10 {
            let e = FaceEmbedding::random(&mut r);
            let n: f64 = e.0.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((n - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn perturbation_stays_close_for_small_noise() {
        let mut r = rng();
        let e = FaceEmbedding::random(&mut r);
        let p = e.perturbed(0.1, &mut r);
        assert!(e.distance(&p) < 0.4);
        let big = e.perturbed(5.0, &mut r);
        assert!(e.distance(&big) > e.distance(&p));
    }

    #[test]
    fn detector_respects_quality() {
        let mut r = rng();
        let e = FaceEmbedding::random(&mut r);
        let det = FaceDetector { min_quality: 0.5 };
        assert!(det.detect(&face(&e, 0.9)).is_some());
        assert!(det.detect(&face(&e, 0.3)).is_none());
        assert!(det
            .detect(&ProfileImage {
                content: ImageContent::NoFace
            })
            .is_none());
    }

    #[test]
    fn classifier_separates_same_from_different() {
        let mut r = rng();
        let cls = FaceClassifier::default();
        let mut same_scores = Vec::new();
        let mut diff_scores = Vec::new();
        for _ in 0..20 {
            let e = FaceEmbedding::random(&mut r);
            let noisy = e.perturbed(0.15, &mut r);
            same_scores.push(cls.score(&e, &noisy));
            let other = FaceEmbedding::random(&mut r);
            diff_scores.push(cls.score(&e, &other));
        }
        let same_min = same_scores.iter().cloned().fold(1.0, f64::min);
        let diff_max = diff_scores.iter().cloned().fold(0.0, f64::max);
        assert!(same_min > 0.8, "same-person scores too low: {same_min}");
        assert!(
            diff_max < 0.2,
            "different-person scores too high: {diff_max}"
        );
    }

    #[test]
    fn workflow_aborts_without_images() {
        let det = FaceDetector::default();
        let cls = FaceClassifier::default();
        assert_eq!(
            match_profile_images(None, None, &det, &cls),
            FaceMatchOutcome::Aborted(AbortReason::MissingImage)
        );
        let mut r = rng();
        let e = FaceEmbedding::random(&mut r);
        let img = face(&e, 0.9);
        assert_eq!(
            match_profile_images(Some(&img), None, &det, &cls),
            FaceMatchOutcome::Aborted(AbortReason::MissingImage)
        );
    }

    #[test]
    fn workflow_aborts_on_undetectable_faces() {
        let det = FaceDetector::default();
        let cls = FaceClassifier::default();
        let mut r = rng();
        let e = FaceEmbedding::random(&mut r);
        let good = face(&e, 0.9);
        let occluded = face(&e, 0.05);
        let noface = ProfileImage {
            content: ImageContent::NoFace,
        };
        assert_eq!(
            match_profile_images(Some(&good), Some(&occluded), &det, &cls),
            FaceMatchOutcome::Aborted(AbortReason::NoFaceDetected)
        );
        assert_eq!(
            match_profile_images(Some(&good), Some(&noface), &det, &cls),
            FaceMatchOutcome::Aborted(AbortReason::NoFaceDetected)
        );
    }

    #[test]
    fn workflow_scores_matching_faces_high() {
        let det = FaceDetector::default();
        let cls = FaceClassifier::default();
        let mut r = rng();
        let e = FaceEmbedding::random(&mut r);
        let a = face(&e, 0.9);
        let b = face(&e.perturbed(0.1, &mut r), 0.8);
        match match_profile_images(Some(&a), Some(&b), &det, &cls) {
            FaceMatchOutcome::Score(s) => assert!(s > 0.9, "expected high score, got {s}"),
            other => panic!("expected score, got {other:?}"),
        }
    }

    #[test]
    fn fake_faces_score_low() {
        // A "fake" profile picture: someone else's face entirely.
        let det = FaceDetector::default();
        let cls = FaceClassifier::default();
        let mut r = rng();
        let real = FaceEmbedding::random(&mut r);
        let fake = FaceEmbedding::random(&mut r);
        let a = face(&real, 0.9);
        let b = face(&fake, 0.9);
        match match_profile_images(Some(&a), Some(&b), &det, &cls) {
            FaceMatchOutcome::Score(s) => assert!(s < 0.2, "fake face scored {s}"),
            other => panic!("expected score, got {other:?}"),
        }
    }
}

//! The seven application drivers: pre-process → DjiNN request →
//! post-process, against either a local in-process network or a remote
//! DjiNN server.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use djinn::{trace, DjinnClient, DjinnError, StreamMode, TraceRecord};
use dnn::zoo::App;
use dnn::Network;
use tensor::Tensor;

use crate::{image, speech, text};

/// How many times a `Busy` (load-shed) reply is retried before the error
/// propagates to the application.
const BUSY_RETRIES: u32 = 4;

/// First backoff after a `Busy` reply; doubles per retry (1 → 16 ms).
const BUSY_BACKOFF: Duration = Duration::from_millis(1);

/// Where the DNN part of a query executes.
pub enum Backend {
    /// In-process forward pass (useful for tests and offline runs).
    Local(Arc<Network>),
    /// Remote DjiNN service over TCP. The client is boxed: it carries
    /// correlation state (pending/abandoned request maps) and would
    /// otherwise dwarf the `Local` variant.
    Remote {
        /// Connected client.
        client: Box<DjinnClient>,
        /// Model name on the server.
        model: String,
        /// Trace of the most recent successful request on this backend.
        last_trace: Option<TraceRecord>,
    },
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Local(n) => write!(f, "Backend::Local({})", n.def().name()),
            Backend::Remote { model, .. } => write!(f, "Backend::Remote({model})"),
        }
    }
}

impl Backend {
    fn infer(&mut self, input: &Tensor) -> djinn::Result<Tensor> {
        match self {
            Backend::Local(net) => Ok(net.forward(input)?),
            Backend::Remote {
                client,
                model,
                last_trace,
            } => {
                // A `Busy` reply is the server shedding load at admission;
                // back off briefly and retry a bounded number of times
                // before giving up, so short bursts ride through while a
                // genuinely saturated service still fails fast. The
                // request ID is drawn once, outside the loop: retries are
                // the same logical request and must trace under one ID.
                let request_id = trace::next_request_id();
                let mut delay = BUSY_BACKOFF;
                let mut attempts = 0;
                loop {
                    match client.infer_traced_with_id(model, input, request_id) {
                        Ok((tensor, mut record)) => {
                            record.busy_retries = attempts;
                            *last_trace = Some(record);
                            return Ok(tensor);
                        }
                        Err(DjinnError::Busy { .. }) if attempts < BUSY_RETRIES => {
                            attempts += 1;
                            std::thread::sleep(delay);
                            delay *= 2;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }

    /// Runs `input` through the backend as row-windows of `window_rows`,
    /// returning one output tensor per window in order. Local backends
    /// window the forward pass in-process; remote backends issue one
    /// protocol-v7 windowed stream request and collect its chunks. As
    /// with one-shot inference, a `Busy` shed reply is retried with
    /// backoff — a stream that was shed at admission has produced no
    /// chunks, so resending it is safe.
    fn stream_windows(&mut self, input: &Tensor, window_rows: u32) -> djinn::Result<Vec<Tensor>> {
        match self {
            Backend::Local(net) => {
                let rows = input.shape().batch();
                let step = window_rows as usize;
                let mut counts: Vec<usize> = Vec::new();
                let mut left = rows;
                while left > 0 {
                    let take = left.min(step);
                    counts.push(take);
                    left -= take;
                }
                let windows = input.split_batch(&counts).map_err(dnn::DnnError::from)?;
                windows.iter().map(|w| Ok(net.forward(w)?)).collect()
            }
            Backend::Remote { client, model, .. } => {
                let mut delay = BUSY_BACKOFF;
                let mut attempts = 0;
                loop {
                    let outcome: djinn::Result<Vec<Tensor>> = client
                        .stream(model, input, StreamMode::Windowed { window_rows })?
                        .map(|chunk| Ok(chunk?.tensor))
                        .collect();
                    match outcome {
                        Err(DjinnError::Busy { .. }) if attempts < BUSY_RETRIES => {
                            attempts += 1;
                            std::thread::sleep(delay);
                            delay *= 2;
                        }
                        other => return other,
                    }
                }
            }
        }
    }
}

/// One Tonic application bound to a backend.
///
/// Word chunking (CHK) holds a second backend for its internal POS
/// request, mirroring the paper's description: "this application
/// internally makes a POS service request, updates the tags for its
/// input, and then makes its own DNN service request."
#[derive(Debug)]
pub struct TonicApp {
    app: App,
    backend: Backend,
    /// POS backend used only by CHK.
    pos_backend: Option<Backend>,
}

impl TonicApp {
    /// Builds the application with an in-process network.
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn local(app: App) -> djinn::Result<Self> {
        let backend = Backend::Local(Arc::new(dnn::zoo::network(app)?));
        let pos_backend = if app == App::Chk {
            Some(Backend::Local(Arc::new(dnn::zoo::network(App::Pos)?)))
        } else {
            None
        };
        Ok(TonicApp {
            app,
            backend,
            pos_backend,
        })
    }

    /// Builds the application against a remote DjiNN server that serves
    /// the Tonic models under their lower-case names.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn remote(app: App, addr: SocketAddr) -> djinn::Result<Self> {
        let backend = Backend::Remote {
            client: Box::new(DjinnClient::connect(addr)?),
            model: app.name().to_lowercase(),
            last_trace: None,
        };
        let pos_backend = if app == App::Chk {
            Some(Backend::Remote {
                client: Box::new(DjinnClient::connect(addr)?),
                model: "pos".into(),
                last_trace: None,
            })
        } else {
            None
        };
        Ok(TonicApp {
            app,
            backend,
            pos_backend,
        })
    }

    /// Which application this is.
    pub fn app(&self) -> App {
        self.app
    }

    /// Trace of this driver's most recent successful remote request (the
    /// primary backend, not CHK's internal POS pass). `None` for local
    /// backends or before the first success. `busy_retries` on the record
    /// counts how many `Busy` shed replies the request rode through under
    /// its single request ID.
    pub fn last_trace(&self) -> Option<&TraceRecord> {
        match &self.backend {
            Backend::Remote { last_trace, .. } => last_trace.as_ref(),
            Backend::Local(_) => None,
        }
    }

    fn expect(&self, want: App) -> djinn::Result<()> {
        if self.app == want {
            Ok(())
        } else {
            Err(DjinnError::Remote {
                message: format!("driver for {} invoked as {}", self.app, want),
            })
        }
    }

    /// Image classification: images → ImageNet class indices.
    ///
    /// # Errors
    ///
    /// Fails if this driver is not IMC or inference fails.
    pub fn run_imc(&mut self, images: &[Tensor]) -> djinn::Result<Vec<usize>> {
        self.expect(App::Imc)?;
        self.classify(images)
    }

    /// Digit recognition: digit images → digits 0–9.
    ///
    /// # Errors
    ///
    /// Fails if this driver is not DIG or inference fails.
    pub fn run_dig(&mut self, images: &[Tensor]) -> djinn::Result<Vec<usize>> {
        self.expect(App::Dig)?;
        self.classify(images)
    }

    /// Facial recognition: face crops → identity indices (83 celebrities).
    ///
    /// # Errors
    ///
    /// Fails if this driver is not FACE or inference fails.
    pub fn run_face(&mut self, images: &[Tensor]) -> djinn::Result<Vec<usize>> {
        self.expect(App::Face)?;
        self.classify(images)
    }

    fn classify(&mut self, images: &[Tensor]) -> djinn::Result<Vec<usize>> {
        let normalized: Vec<Tensor> = images.iter().map(image::normalize).collect();
        let batch = Tensor::stack_batch(&normalized).map_err(dnn::DnnError::from)?;
        let out = self.backend.infer(&batch)?;
        Ok(image::top1(&out))
    }

    /// Speech recognition: waveform → decoded phone sequence.
    ///
    /// # Errors
    ///
    /// Fails if this driver is not ASR, the audio is shorter than one
    /// analysis frame, or inference fails.
    pub fn run_asr(&mut self, waveform: &[f32]) -> djinn::Result<Vec<usize>> {
        self.expect(App::Asr)?;
        let frames = speech::filterbank(waveform);
        if frames.is_empty() {
            return Err(DjinnError::Remote {
                message: "utterance shorter than one analysis frame".into(),
            });
        }
        let features = speech::splice(&frames);
        let posteriors = self.backend.infer(&features)?;
        Ok(speech::PhoneHmm::new().decode(&posteriors))
    }

    /// Streaming speech recognition: the utterance's spliced feature
    /// rows flow through the backend `window_rows` frames at a time, and
    /// each arriving window of posteriors extends the Viterbi decode —
    /// yielding one partial hypothesis per window, the way an ASR
    /// front-end refines its transcript while the speaker is still
    /// talking. The last hypothesis equals the one-shot [`run_asr`]
    /// answer for the same audio.
    ///
    /// Remote backends issue a single protocol-v7 windowed stream
    /// request; local backends window the forward pass in-process.
    ///
    /// [`run_asr`]: TonicApp::run_asr
    ///
    /// # Errors
    ///
    /// Fails if this driver is not ASR, the audio is shorter than one
    /// analysis frame, `window_rows` is zero, or inference fails.
    pub fn run_asr_streaming(
        &mut self,
        waveform: &[f32],
        window_rows: u32,
    ) -> djinn::Result<Vec<Vec<usize>>> {
        self.expect(App::Asr)?;
        let frames = speech::filterbank(waveform);
        if frames.is_empty() {
            return Err(DjinnError::Remote {
                message: "utterance shorter than one analysis frame".into(),
            });
        }
        if window_rows == 0 {
            return Err(DjinnError::Protocol {
                reason: "streaming ASR needs at least one frame per window".into(),
            });
        }
        let features = speech::splice(&frames);
        let windows = self.backend.stream_windows(&features, window_rows)?;

        // Re-decode the growing posterior prefix after every window. The
        // HMM pass is cheap next to the DNN, so the partials stay honest:
        // each one is exactly what a decoder knowing only the audio so
        // far would output.
        let hmm = speech::PhoneHmm::new();
        let (_, width) = windows[0].shape().as_matrix();
        let mut rows: Vec<f32> = Vec::new();
        let mut hypotheses = Vec::with_capacity(windows.len());
        for window in &windows {
            rows.extend_from_slice(window.data());
            let prefix =
                Tensor::from_vec(tensor::Shape::mat(rows.len() / width, width), rows.clone())
                    .map_err(dnn::DnnError::from)?;
            hypotheses.push(hmm.decode(&prefix));
        }
        Ok(hypotheses)
    }

    /// Part-of-speech tagging: words → tag indices.
    ///
    /// # Errors
    ///
    /// Fails if this driver is not POS or inference fails.
    pub fn run_pos(&mut self, words: &[String]) -> djinn::Result<Vec<usize>> {
        self.expect(App::Pos)?;
        self.tag(words, None)
    }

    /// Named-entity recognition: words → entity tag indices.
    ///
    /// # Errors
    ///
    /// Fails if this driver is not NER or inference fails.
    pub fn run_ner(&mut self, words: &[String]) -> djinn::Result<Vec<usize>> {
        self.expect(App::Ner)?;
        self.tag(words, None)
    }

    /// Word chunking: words → chunk tag indices. Internally performs the
    /// POS request first and folds its tags into the CHK input.
    ///
    /// # Errors
    ///
    /// Fails if this driver is not CHK or either inference fails.
    pub fn run_chk(&mut self, words: &[String]) -> djinn::Result<Vec<usize>> {
        self.expect(App::Chk)?;
        // Internal POS pass.
        let pos_features = text::window_features(words, None);
        let pos_backend = self
            .pos_backend
            .as_mut()
            .expect("CHK always carries a POS backend");
        let pos_scores = pos_backend.infer(&pos_features)?;
        let pos_tags = text::TagModel::new(text::tag_count(App::Pos)).decode(&pos_scores);
        self.tag(words, Some(&pos_tags))
    }

    fn tag(&mut self, words: &[String], hints: Option<&[usize]>) -> djinn::Result<Vec<usize>> {
        let features = text::window_features(words, hints);
        let scores = self.backend.infer(&features)?;
        Ok(text::TagModel::new(text::tag_count(self.app)).decode(&scores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dig_end_to_end_local() {
        let mut app = TonicApp::local(App::Dig).unwrap();
        let digits = image::synth_digits(3, 1);
        let labels = app.run_dig(&digits).unwrap();
        assert_eq!(labels.len(), 3);
        assert!(labels.iter().all(|&l| l < 10));
    }

    #[test]
    fn pos_and_ner_end_to_end_local() {
        let sentence = text::synth_sentence(28, 4);
        let mut pos = TonicApp::local(App::Pos).unwrap();
        let tags = pos.run_pos(&sentence).unwrap();
        assert_eq!(tags.len(), 28);
        assert!(tags.iter().all(|&t| t < 45));

        let mut ner = TonicApp::local(App::Ner).unwrap();
        let ents = ner.run_ner(&sentence).unwrap();
        assert_eq!(ents.len(), 28);
        assert!(ents.iter().all(|&t| t < 9));
    }

    #[test]
    fn chk_uses_internal_pos_request() {
        let sentence = text::synth_sentence(12, 5);
        let mut chk = TonicApp::local(App::Chk).unwrap();
        let chunks = chk.run_chk(&sentence).unwrap();
        assert_eq!(chunks.len(), 12);
        assert!(chunks.iter().all(|&t| t < 23));
    }

    #[test]
    fn asr_end_to_end_local_short_utterance() {
        let mut asr = TonicApp::local(App::Asr).unwrap();
        let wav = speech::synth_utterance(0.15, 2); // a few frames
        let phones = asr.run_asr(&wav).unwrap();
        assert!(!phones.is_empty());
        assert!(phones.iter().all(|&p| p < speech::PHONES));
    }

    #[test]
    fn asr_rejects_too_short_audio() {
        let mut asr = TonicApp::local(App::Asr).unwrap();
        assert!(asr.run_asr(&[0.0; 64]).is_err());
    }

    /// Streaming ASR refines toward the one-shot answer: one partial
    /// hypothesis per feature window, each a decode of exactly the audio
    /// seen so far, with the final partial equal to `run_asr`'s output.
    #[test]
    fn asr_streaming_partials_converge_to_the_oneshot_decode() {
        let mut asr = TonicApp::local(App::Asr).unwrap();
        let wav = speech::synth_utterance(0.25, 5);
        let full = asr.run_asr(&wav).unwrap();
        let partials = asr.run_asr_streaming(&wav, 3).unwrap();

        let frames = speech::filterbank(&wav).len();
        assert_eq!(partials.len(), frames.div_ceil(3), "one partial per window");
        // Decodes are run-collapsed, so a partial over k frames holds
        // between 1 and k phones — what grows is the audio covered, not
        // necessarily the hypothesis length.
        for (i, partial) in partials.iter().enumerate() {
            let heard = ((i + 1) * 3).min(frames);
            assert!(
                !partial.is_empty() && partial.len() <= heard,
                "partial {i} must decode the {heard} frames heard so far"
            );
            assert!(partial.iter().all(|&p| p < speech::PHONES));
        }
        assert_eq!(partials.last().unwrap(), &full, "final partial == one-shot");
        assert!(asr.run_asr_streaming(&wav, 0).is_err(), "zero-row windows");
    }

    /// The same streaming contract holds against a remote DjiNN server:
    /// the windowed stream request comes back as ordered chunks and the
    /// partial hypotheses match the local backend's bit-for-bit (both
    /// sides build the ASR network from the same fixed seed).
    #[test]
    fn asr_streaming_remote_matches_local() {
        let mut registry = djinn::ModelRegistry::new();
        registry.register("asr", dnn::zoo::network(App::Asr).unwrap());
        let server = djinn::DjinnServer::start(registry, djinn::ServerConfig::default()).unwrap();

        let wav = speech::synth_utterance(0.2, 9);
        let mut local = TonicApp::local(App::Asr).unwrap();
        let mut remote = TonicApp::remote(App::Asr, server.local_addr()).unwrap();
        assert_eq!(
            remote.run_asr_streaming(&wav, 4).unwrap(),
            local.run_asr_streaming(&wav, 4).unwrap()
        );
        server.shutdown();
    }

    #[test]
    fn wrong_driver_method_is_rejected() {
        let mut pos = TonicApp::local(App::Pos).unwrap();
        let imgs = image::synth_digits(1, 1);
        assert!(pos.run_dig(&imgs).is_err());
    }

    /// A `Busy` retry is the same logical request: the backend must
    /// resend it under the request ID it drew the first time, and the
    /// surviving trace must record how many sheds it rode through.
    #[test]
    fn busy_retries_keep_one_request_id() {
        use djinn::protocol::{FrameReader, Request, Response};
        use djinn::ServerTrace;
        use std::io::Write;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut requests = FrameReader::new();
            let mut reply = bytes::BytesMut::new();
            let mut ids = Vec::new();
            for attempt in 0..2 {
                let frame = requests.read_frame_ref(&stream).unwrap().unwrap();
                let Request::Infer {
                    input, request_id, ..
                } = Request::decode(frame).unwrap()
                else {
                    panic!("expected an infer request");
                };
                ids.push(request_id);
                let rsp = if attempt == 0 {
                    Response::Busy {
                        request_id,
                        model: "pos".into(),
                        queue_depth: 1,
                    }
                } else {
                    Response::Output {
                        tensor: input,
                        trace: ServerTrace::new(request_id, Default::default(), 5),
                    }
                };
                rsp.encode_framed_into(&mut reply).unwrap();
                stream.write_all(&reply).unwrap();
            }
            ids
        });

        let mut backend = Backend::Remote {
            client: Box::new(DjinnClient::connect(addr).unwrap()),
            model: "pos".into(),
            last_trace: None,
        };
        let input = Tensor::random_uniform(tensor::Shape::mat(1, 4), 1.0, 7);
        backend.infer(&input).unwrap();

        let ids = server.join().unwrap();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], 0, "a traced request must carry a nonzero ID");
        assert_eq!(ids[0], ids[1], "the retry must reuse the original ID");
        let Backend::Remote { last_trace, .. } = backend else {
            unreachable!()
        };
        let record = last_trace.expect("a successful request leaves a trace");
        assert_eq!(record.request_id, ids[0]);
        assert_eq!(record.busy_retries, 1);
    }

    #[test]
    fn results_are_deterministic() {
        let sentence = text::synth_sentence(10, 6);
        let mut a = TonicApp::local(App::Pos).unwrap();
        let mut b = TonicApp::local(App::Pos).unwrap();
        assert_eq!(a.run_pos(&sentence).unwrap(), b.run_pos(&sentence).unwrap());
    }
}
